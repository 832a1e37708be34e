package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope records where and how a result file was produced, so numbers
// from different machines and days can be told apart.
type envelope struct {
	GitSHA     string `json:"gitSha"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Started    string `json:"started"`
	// CalibrationStart and CalibrationEnd are scores (iterations per
	// second) of one fixed CPU loop, taken before and after the runs. A file
	// whose two scores differ by more than a tenth shared the machine with
	// something else: it is flagged noisy, and -compare calls its host-timed
	// metrics unresolved.
	CalibrationStart float64 `json:"calibrationStart"`
	CalibrationEnd   float64 `json:"calibrationEnd"`
	Noisy            bool    `json:"noisy"`
}

func newEnvelope(o options) envelope {
	return envelope{
		GitSHA:           gitSHA(),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Seed:             o.seed,
		Started:          hostNow().UTC().Format("2006-01-02T15:04:05Z"),
		CalibrationStart: calibrate(time.Second),
	}
}

func (e *envelope) finish() {
	e.CalibrationEnd = calibrate(time.Second)
	if e.CalibrationStart > 0 {
		e.Noisy = math.Abs(e.CalibrationEnd-e.CalibrationStart)/e.CalibrationStart > 0.10
	}
}

// gitSHA is best effort: the benchmark also runs in checkouts that are not
// git repositories.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibrate scores the machine with one fixed loop and returns iterations
// per second: the median of five slices of a fifth of d each, so that one
// interrupted slice does not decide it. An iteration shuffles a 4,096-entry
// table back into a fixed order, sorts it and hashes it — branches, memory
// and arithmetic, and no allocation, so the score does not follow the state
// of the process's heap.
func calibrate(d time.Duration) float64 {
	var table, work [4096]int
	x := uint32(2463534242)
	for i := range table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[i] = int(x)
	}
	var sink uint64
	scores := make([]float64, 5)
	for s := range scores {
		start := hostNow()
		iters := 0
		for hostSince(start) < d/5 {
			work = table
			sort.Ints(work[:])
			h := uint64(14695981039346656037)
			for _, v := range work {
				h = (h ^ uint64(v)) * 1099511628211
			}
			sink += h
			iters++
		}
		scores[s] = float64(iters) / hostSince(start).Seconds()
	}
	if sink == 0 {
		panic("bench: calibration loop computed nothing")
	}
	return median(scores)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Envelope envelope    `json:"envelope"`
	Runs     []runResult `json:"runs"`
}

func writeResultFile(path string, f resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	body, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(body, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// historyLine is one point on the kept trajectory: the envelope and, per
// workload and metric, the median over the file's runs.
type historyLine struct {
	Envelope envelope                      `json:"envelope"`
	Medians  map[string]map[string]float64 `json:"medians"`
}

func appendHistory(path string, f resultFile) error {
	line := historyLine{Envelope: f.Envelope, Medians: make(map[string]map[string]float64)}
	for key, vals := range perRunValues(f) {
		if line.Medians[key.workload] == nil {
			line.Medians[key.workload] = make(map[string]float64)
		}
		line.Medians[key.workload][key.metric] = median(vals)
	}
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	h, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := h.Write(append(body, '\n')); err != nil {
		h.Close()
		return err
	}
	return h.Close()
}

type metricKey struct{ workload, metric string }

// perRunValues gathers each (workload, metric)'s value from every run in
// the file.
func perRunValues(f resultFile) map[metricKey][]float64 {
	out := make(map[metricKey][]float64)
	for _, r := range f.Runs {
		for name, m := range r.Metrics { //gowren:allow mapiter — each metric appends to its own key; runs stay in file order
			k := metricKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}
