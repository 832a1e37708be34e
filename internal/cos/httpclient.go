package cos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// HTTPClient is a Client backed by a remote Store served with Handler. It is
// used when the simulated cloud runs as a separate process
// (cmd/gowren-server); in-process simulations talk to the Store directly.
type HTTPClient struct {
	base string
	hc   *http.Client
}

var _ Client = (*HTTPClient)(nil)

// NewHTTPClient returns a client for the store served at baseURL
// (e.g. "http://127.0.0.1:7070"). A nil httpClient uses a default with a
// 60 s timeout.
func NewHTTPClient(baseURL string, httpClient *http.Client) *HTTPClient {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPClient{base: baseURL, hc: httpClient}
}

func (c *HTTPClient) bucketURL(bucket string) string {
	return c.base + "/b/" + url.PathEscape(bucket)
}

func (c *HTTPClient) objectURL(bucket, key string) string {
	// Keys may contain slashes that must survive as path separators.
	return c.bucketURL(bucket) + "/" + escapeKey(key)
}

func escapeKey(key string) string {
	segs := make([]string, 0, 4)
	start := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '/' {
			segs = append(segs, url.PathEscape(key[start:i]))
			start = i + 1
		}
	}
	out := segs[0]
	for _, s := range segs[1:] {
		out += "/" + s
	}
	return out
}

func (c *HTTPClient) do(method, rawURL string, body []byte, header http.Header) (*http.Response, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rdr)
	if err != nil {
		return nil, fmt.Errorf("cos http: build %s %s: %w", method, rawURL, err)
	}
	// http.Header is itself a map: cross-key write order is unobservable,
	// and per-key value order is preserved by the inner slice loop.
	for k, vs := range header { //gowren:allow mapiter — writes into another map, order unobservable
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cos http: %s %s: %w", method, rawURL, err)
	}
	return resp, nil
}

// remoteErr converts an error response into the matching package sentinel.
func remoteErr(resp *http.Response) error {
	defer drain(resp)
	code := resp.Header.Get(headerError)
	if base, ok := errToCode[code]; ok {
		return fmt.Errorf("remote (%s): %w", resp.Status, base)
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("cos http: unexpected status %s: %s", resp.Status, bytes.TrimSpace(msg))
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

func metaFromHeaders(key string, h http.Header) ObjectMeta {
	size, _ := strconv.ParseInt(h.Get(headerObjectSize), 10, 64)
	mod, _ := time.Parse("2006-01-02T15:04:05.000000000Z", h.Get(headerLastModified))
	return ObjectMeta{Key: key, Size: size, ETag: h.Get("ETag"), LastModified: mod}
}

// CreateBucket implements Client.
func (c *HTTPClient) CreateBucket(bucket string) error {
	resp, err := c.do(http.MethodPut, c.bucketURL(bucket), nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return remoteErr(resp)
	}
	drain(resp)
	return nil
}

// DeleteBucket implements Client.
func (c *HTTPClient) DeleteBucket(bucket string) error {
	resp, err := c.do(http.MethodDelete, c.bucketURL(bucket), nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return remoteErr(resp)
	}
	drain(resp)
	return nil
}

// BucketExists implements Client.
func (c *HTTPClient) BucketExists(bucket string) (bool, error) {
	resp, err := c.do(http.MethodHead, c.bucketURL(bucket), nil, nil)
	if err != nil {
		return false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("cos http: head bucket: unexpected status %s", resp.Status)
	}
}

// Put implements Client.
func (c *HTTPClient) Put(bucket, key string, data []byte) (ObjectMeta, error) {
	return c.put(bucket, key, data, nil)
}

// PutIf implements Client: the expectation travels as a PUT precondition and
// the server's store compares and swaps atomically; a 412 comes back as
// ErrPreconditionFailed.
func (c *HTTPClient) PutIf(bucket, key string, data []byte, ifMatch string) (ObjectMeta, error) {
	if ifMatch == "" {
		return c.put(bucket, key, data, http.Header{"If-None-Match": []string{"*"}})
	}
	return c.put(bucket, key, data, http.Header{"If-Match": []string{ifMatch}})
}

func (c *HTTPClient) put(bucket, key string, data []byte, precondition http.Header) (ObjectMeta, error) {
	resp, err := c.do(http.MethodPut, c.objectURL(bucket, key), data, precondition)
	if err != nil {
		return ObjectMeta{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ObjectMeta{}, remoteErr(resp)
	}
	meta := metaFromHeaders(key, resp.Header)
	drain(resp)
	return meta, nil
}

// Get implements Client.
func (c *HTTPClient) Get(bucket, key string) ([]byte, ObjectMeta, error) {
	return c.get(bucket, key, "")
}

// GetRange implements Client.
func (c *HTTPClient) GetRange(bucket, key string, offset, length int64) ([]byte, ObjectMeta, error) {
	var rangeHeader string
	if length < 0 || length > math.MaxInt64-offset {
		rangeHeader = fmt.Sprintf("bytes=%d-", offset)
	} else {
		if length == 0 {
			// The HTTP range unit cannot express empty ranges; resolve
			// locally with a metadata round trip.
			meta, err := c.Head(bucket, key)
			if err != nil {
				return nil, ObjectMeta{}, err
			}
			if offset > 0 && offset >= meta.Size {
				return nil, ObjectMeta{}, fmt.Errorf("get %s/%s offset=%d size=%d: %w", bucket, key, offset, meta.Size, ErrInvalidRange)
			}
			return []byte{}, meta, nil
		}
		rangeHeader = fmt.Sprintf("bytes=%d-%d", offset, offset+length-1)
	}
	return c.get(bucket, key, rangeHeader)
}

func (c *HTTPClient) get(bucket, key, rangeHeader string) ([]byte, ObjectMeta, error) {
	var h http.Header
	if rangeHeader != "" {
		h = http.Header{"Range": []string{rangeHeader}}
	}
	resp, err := c.do(http.MethodGet, c.objectURL(bucket, key), nil, h)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return nil, ObjectMeta{}, remoteErr(resp)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, ObjectMeta{}, fmt.Errorf("cos http: read body %s/%s: %w", bucket, key, err)
	}
	return data, metaFromHeaders(key, resp.Header), nil
}

// Head implements Client.
func (c *HTTPClient) Head(bucket, key string) (ObjectMeta, error) {
	resp, err := c.do(http.MethodHead, c.objectURL(bucket, key), nil, nil)
	if err != nil {
		return ObjectMeta{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		// HEAD responses carry no body; rebuild the sentinel from headers.
		if base, ok := errToCode[resp.Header.Get(headerError)]; ok {
			return ObjectMeta{}, fmt.Errorf("head %s/%s: %w", bucket, key, base)
		}
		return ObjectMeta{}, fmt.Errorf("cos http: head %s/%s: unexpected status %s", bucket, key, resp.Status)
	}
	return metaFromHeaders(key, resp.Header), nil
}

// List implements Client.
func (c *HTTPClient) List(bucket, prefix, marker string, maxKeys int) (ListResult, error) {
	q := url.Values{}
	if prefix != "" {
		q.Set("prefix", prefix)
	}
	if marker != "" {
		q.Set("marker", marker)
	}
	if maxKeys > 0 {
		q.Set("max-keys", strconv.Itoa(maxKeys))
	}
	u := c.bucketURL(bucket)
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := c.do(http.MethodGet, u, nil, nil)
	if err != nil {
		return ListResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ListResult{}, remoteErr(resp)
	}
	defer resp.Body.Close()
	var res ListResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return ListResult{}, fmt.Errorf("cos http: decode list response: %w", err)
	}
	return res, nil
}

// ListBuckets implements Client.
func (c *HTTPClient) ListBuckets() ([]string, error) {
	resp, err := c.do(http.MethodGet, c.base+"/b", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(resp)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, fmt.Errorf("cos http: decode bucket list: %w", err)
	}
	return names, nil
}

// Delete implements Client.
func (c *HTTPClient) Delete(bucket, key string) error {
	resp, err := c.do(http.MethodDelete, c.objectURL(bucket, key), nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return remoteErr(resp)
	}
	drain(resp)
	return nil
}
