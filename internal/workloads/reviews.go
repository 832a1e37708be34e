// Package workloads implements the workloads of the paper's evaluation
// (§6): the compute-bound tasks of the spawning and elasticity experiments
// (Figs. 2–3), the depth-controlled parallel mergesort of the dynamic-
// composition experiment (Fig. 4), and the Airbnb-reviews tone-analysis
// MapReduce job of §6.4 (Table 3, Fig. 5).
//
// The paper's dataset — 1.9 GB of www.airbnb.com reviews for 33 cities,
// 3,695,107 comments, obtained from the IBM Watson Studio Community — is
// proprietary-ish and unavailable offline, so this package synthesizes an
// equivalent: fixed-size review records generated deterministically from a
// seed, with a per-city size distribution calibrated so the partitioner
// produces executor counts close to Table 3's. The tone analyzer is a
// lexicon-based classifier standing in for the Watson Tone Analyzer; what
// matters for the experiment's shape is bytes-per-city and per-byte
// processing cost, both of which are preserved (see DESIGN.md §3).
package workloads

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"gowren/internal/cos"
)

// RecordSize is the fixed byte size of one review record. Chunk sizes used
// by the experiments are multiples of RecordSize, so partition boundaries
// never split a record.
const RecordSize = 256

// City describes one city dataset object.
type City struct {
	Name string
	Lat  float64
	Lon  float64
	// SizeBytes is the city's object size (multiple of RecordSize).
	SizeBytes int64
	// goodBias shifts the city's tone distribution; purely cosmetic for
	// the rendered maps.
	goodBias float64
}

// Records returns the number of review records in the city object.
func (c City) Records() int64 { return c.SizeBytes / RecordSize }

// cityWeights lists the paper's 33 cities (airbnb datasets in the Watson
// Studio Community are per-city; the exact set is not published, so this
// uses well-known Airbnb markets) with relative dataset weights. Sizes are
// deliberately skewed: a few very large cities and a long tail, which is
// what makes Table 3's executor counts grow sublinearly as chunks shrink.
var cityWeights = []struct {
	name     string
	lat, lon float64
	weight   float64
	goodBias float64
}{
	{"new-york", 40.7128, -74.0060, 13.0, 0.02},
	{"london", 51.5074, -0.1278, 11.5, 0.00},
	{"paris", 48.8566, 2.3522, 10.0, 0.05},
	{"los-angeles", 34.0522, -118.2437, 7.5, 0.01},
	{"rome", 41.9028, 12.4964, 5.5, 0.06},
	{"barcelona", 41.3851, 2.1734, 5.0, 0.04},
	{"amsterdam", 52.3676, 4.9041, 4.5, 0.07},
	{"berlin", 52.5200, 13.4050, 4.2, 0.03},
	{"san-francisco", 37.7749, -122.4194, 3.8, 0.02},
	{"sydney", -33.8688, 151.2093, 3.5, 0.08},
	{"toronto", 43.6532, -79.3832, 3.0, 0.04},
	{"madrid", 40.4168, -3.7038, 2.8, 0.03},
	{"chicago", 41.8781, -87.6298, 2.5, 0.00},
	{"austin", 30.2672, -97.7431, 2.2, 0.05},
	{"lisbon", 38.7223, -9.1393, 2.0, 0.06},
	{"copenhagen", 55.6761, 12.5683, 1.8, 0.07},
	{"dublin", 53.3498, -6.2603, 1.7, 0.02},
	{"vienna", 48.2082, 16.3738, 1.6, 0.05},
	{"seattle", 47.6062, -122.3321, 1.5, 0.03},
	{"boston", 42.3601, -71.0589, 1.4, 0.01},
	{"melbourne", -37.8136, 144.9631, 1.3, 0.06},
	{"vancouver", 49.2827, -123.1207, 1.2, 0.05},
	{"prague", 50.0755, 14.4378, 1.1, 0.04},
	{"brussels", 50.8503, 4.3517, 1.0, 0.02},
	{"athens", 37.9838, 23.7275, 0.95, 0.05},
	{"budapest", 47.4979, 19.0402, 0.9, 0.03},
	{"oslo", 59.9139, 10.7522, 0.85, 0.06},
	{"stockholm", 59.3293, 18.0686, 0.8, 0.05},
	{"helsinki", 60.1699, 24.9384, 0.75, 0.04},
	{"porto", 41.1579, -8.6291, 0.7, 0.06},
	{"edinburgh", 55.9533, -3.1883, 0.65, 0.05},
	{"valencia", 39.4699, -0.3763, 0.6, 0.04},
	{"geneva", 46.2044, 6.1432, 0.55, 0.01},
}

// DefaultDatasetBytes is the paper's total dataset size: 1.9 GB.
const DefaultDatasetBytes = int64(1_900_000_000)

// Cities returns the 33-city dataset scaled to totalBytes (use
// DefaultDatasetBytes for the paper's scale). Each size is rounded down to
// a whole number of records.
func Cities(totalBytes int64) []City {
	var sum float64
	for _, c := range cityWeights {
		sum += c.weight
	}
	out := make([]City, len(cityWeights))
	for i, c := range cityWeights {
		size := int64(float64(totalBytes) * c.weight / sum)
		size -= size % RecordSize
		if size < RecordSize {
			size = RecordSize
		}
		out[i] = City{
			Name:      c.name,
			Lat:       c.lat,
			Lon:       c.lon,
			SizeBytes: size,
			goodBias:  c.goodBias,
		}
	}
	return out
}

// TotalBytes sums the city object sizes.
func TotalBytes(cities []City) int64 {
	var total int64
	for _, c := range cities {
		total += c.SizeBytes
	}
	return total
}

// TotalRecords sums the city record (comment) counts.
func TotalRecords(cities []City) int64 {
	var total int64
	for _, c := range cities {
		total += c.Records()
	}
	return total
}

// Tone classes.
const (
	ToneGood    = "good"
	ToneNeutral = "neutral"
	ToneBad     = "bad"
)

// Tone lexicons: the generator writes reviews drawn from these, and the
// analyzer classifies by counting hits, the classic lexicon approach.
var (
	goodWords    = []string{"wonderful", "great", "cozy", "perfect", "lovely", "spotless", "charming", "amazing"}
	neutralWords = []string{"okay", "fine", "average", "decent", "standard", "adequate", "plain", "simple"}
	badWords     = []string{"dirty", "noisy", "awful", "broken", "terrible", "cramped", "smelly", "rude"}
)

// splitmix64 is a tiny deterministic PRNG step, good enough for content
// synthesis and stable across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// recordTone picks the tone class of record k deterministically: roughly
// 50% good / 30% neutral / 20% bad, shifted by the city's bias.
func recordTone(seed uint64, k int64, goodBias float64) string {
	r := splitmix64(seed ^ uint64(k)*0x9e3779b97f4a7c15)
	u := float64(r%10000) / 10000
	switch {
	case u < 0.50+goodBias:
		return ToneGood
	case u < 0.80+goodBias:
		return ToneNeutral
	default:
		return ToneBad
	}
}

// buildRecord renders review record k for a city into a RecordSize buffer.
// Layout: "R|<city>|<lat>|<lon>|<words ...>" padded with spaces, ending in
// '\n'. Latitude/longitude jitter around the city centre gives each
// apartment a distinct point on the rendered map. It appends in place —
// AppendFloat's 'f'/5 prints exactly what %.5f does — so rendering a record
// allocates nothing; TestDatasetDigestUnchanged pins the bytes.
func buildRecord(city City, seed uint64, k int64, buf []byte) {
	var words []string
	switch recordTone(seed, k, city.goodBias) {
	case ToneGood:
		words = goodWords
	case ToneNeutral:
		words = neutralWords
	default:
		words = badWords
	}
	r1 := splitmix64(seed ^ uint64(k)*31 + 7)
	r2 := splitmix64(seed ^ uint64(k)*131 + 13)
	// Rounding each offset keeps arm64 from fusing it into the sum.
	lat := city.Lat + float64((float64(r1%2000)/2000-0.5)*0.2)
	lon := city.Lon + float64((float64(r2%2000)/2000-0.5)*0.2)

	b := append(buf[:0], "R|"...)
	b = append(b, city.Name...)
	b = append(b, '|')
	b = strconv.AppendFloat(b, lat, 'f', 5, 64)
	b = append(b, '|')
	b = strconv.AppendFloat(b, lon, 'f', 5, 64)
	b = append(b, '|')
	wi := int(r1 % uint64(len(words)))
	for len(b) < RecordSize-16 {
		b = append(b, words[wi]...)
		b = append(b, ' ')
		wi = (wi + 1) % len(words)
	}
	for len(b) < RecordSize-1 {
		b = append(b, ' ')
	}
	buf[RecordSize-1] = '\n'
}

// CityGenerator returns a cos.Generator producing the city's review
// records for any byte range. Reads need not be record-aligned.
func CityGenerator(city City, seed uint64) cos.Generator {
	return cos.GeneratorFunc(func(off int64, p []byte) {
		var rec [RecordSize]byte
		for len(p) > 0 {
			k := off / RecordSize
			within := off % RecordSize
			buildRecord(city, seed, k, rec[:])
			n := copy(p, rec[within:])
			p = p[n:]
			off += int64(n)
		}
	})
}

// LoadDataset creates bucket and stores every city as a generated object,
// so even the full 1.9 GB dataset occupies no memory. It returns the city
// list for convenience.
func LoadDataset(store *cos.Store, bucket string, totalBytes int64, seed uint64) ([]City, error) {
	if err := store.CreateBucket(bucket); err != nil {
		return nil, fmt.Errorf("workloads: create dataset bucket: %w", err)
	}
	cities := Cities(totalBytes)
	for _, city := range cities {
		if _, err := store.PutGenerated(bucket, city.Name, city.SizeBytes, CityGenerator(city, seed)); err != nil {
			return nil, fmt.Errorf("workloads: store city %s: %w", city.Name, err)
		}
	}
	return cities, nil
}

// ToneCounts aggregates tone classifications over review records.
type ToneCounts struct {
	Good    int64 `json:"good"`
	Neutral int64 `json:"neutral"`
	Bad     int64 `json:"bad"`
	Records int64 `json:"records"`
}

// Add accumulates other into c.
func (c *ToneCounts) Add(other ToneCounts) {
	c.Good += other.Good
	c.Neutral += other.Neutral
	c.Bad += other.Bad
	c.Records += other.Records
}

// Point is one apartment location with its dominant review tone, used to
// render the §6.4 city maps.
type Point struct {
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
	Tone string  `json:"tone"`
}

// AnalyzeTone classifies whole records in data (record-aligned; trailing
// partial records are ignored) and returns counts plus up to maxPoints
// sampled map points. It scans the records in place: the only allocation is
// the points slice, made at the first point with room for maxPoints.
func AnalyzeTone(data []byte, maxPoints int) (ToneCounts, []Point) {
	var counts ToneCounts
	var points []Point
records:
	for ; len(data) >= RecordSize; data = data[RecordSize:] {
		// fields[0..3] are tag, city, lat, lon; body is everything after
		// the fourth '|'.
		var fields [4][]byte
		body := data[:RecordSize]
		for i := range fields {
			j := bytes.IndexByte(body, '|')
			if j < 0 {
				continue records
			}
			fields[i], body = body[:j], body[j+1:]
		}
		if string(fields[0]) != "R" {
			continue
		}
		tone := classify(body)
		counts.Records++
		switch tone {
		case ToneGood:
			counts.Good++
		case ToneNeutral:
			counts.Neutral++
		default:
			counts.Bad++
		}
		if len(points) < maxPoints {
			lat, err := strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				continue
			}
			lon, err := strconv.ParseFloat(string(fields[3]), 64)
			if err != nil {
				continue
			}
			if points == nil {
				points = make([]Point, 0, maxPoints)
			}
			points = append(points, Point{Lat: lat, Lon: lon, Tone: tone})
		}
	}
	return counts, points
}

// classify counts lexicon hits in the review body's whitespace-separated
// words and returns the dominant tone. Whitespace is strings.Fields': an
// ASCII table, and unicode.IsSpace from byte 0x80 up, where an invalid
// UTF-8 sequence is one non-space byte.
func classify(body []byte) string {
	var good, neutral, bad int
	word := -1 // start of the word being scanned; -1 between words
	for i := 0; i <= len(body); {
		space, n := true, 1 // the end of the body ends the last word
		if i < len(body) {
			if c := body[i]; c < utf8.RuneSelf {
				space = asciiSpace[c]
			} else {
				r, size := utf8.DecodeRune(body[i:])
				space, n = unicode.IsSpace(r), size
			}
		}
		switch {
		case !space && word < 0:
			word = i
		case space && word >= 0:
			switch w := body[word:i]; {
			case contains(goodWords, w):
				good++
			case contains(neutralWords, w):
				neutral++
			case contains(badWords, w):
				bad++
			}
			word = -1
		}
		i += n
	}
	switch {
	case good >= neutral && good >= bad && good > 0:
		return ToneGood
	case neutral >= bad && neutral > 0:
		return ToneNeutral
	case bad > 0:
		return ToneBad
	default:
		return ToneNeutral
	}
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func contains(words []string, w []byte) bool {
	for _, x := range words {
		if string(w) == x {
			return true
		}
	}
	return false
}
