package cos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// HTTP wire details shared by Handler and HTTPClient. The dialect is a small
// REST protocol in the spirit of the COS/S3 API:
//
//	GET    /b                       list buckets (JSON array)
//	PUT    /b/{bucket}              create bucket
//	HEAD   /b/{bucket}              bucket existence
//	GET    /b/{bucket}?prefix=&marker=&max-keys=   list (JSON ListResult)
//	DELETE /b/{bucket}              delete bucket
//	PUT    /b/{bucket}/{key...}     put object (body = content); conditional
//	                                under If-Match: <etag> (replace exactly
//	                                that version) or If-None-Match: * (create
//	                                only), 412 when the precondition fails
//	GET    /b/{bucket}/{key...}     get object; honors Range: bytes=a-b
//	HEAD   /b/{bucket}/{key...}     object metadata
//	DELETE /b/{bucket}/{key...}     delete object
//	GET    /stats                   engine counters (JSON)
//
// Error identity crosses the wire in the X-Cos-Error header so errors.Is
// works against the package sentinels on both sides.
const (
	headerError        = "X-Cos-Error"
	headerObjectSize   = "X-Cos-Object-Size"
	headerLastModified = "X-Cos-Last-Modified"
)

var errToCode = map[string]error{
	"NoSuchBucket":       ErrNoSuchBucket,
	"NoSuchKey":          ErrNoSuchKey,
	"BucketExists":       ErrBucketExists,
	"BucketNotEmpty":     ErrBucketNotEmpty,
	"InvalidRange":       ErrInvalidRange,
	"RequestFailed":      ErrRequestFailed,
	"PreconditionFailed": ErrPreconditionFailed,
}

func codeForErr(err error) (string, int) {
	switch {
	case errors.Is(err, ErrNoSuchBucket):
		return "NoSuchBucket", http.StatusNotFound
	case errors.Is(err, ErrNoSuchKey):
		return "NoSuchKey", http.StatusNotFound
	case errors.Is(err, ErrBucketExists):
		return "BucketExists", http.StatusConflict
	case errors.Is(err, ErrBucketNotEmpty):
		return "BucketNotEmpty", http.StatusConflict
	case errors.Is(err, ErrInvalidRange):
		return "InvalidRange", http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, ErrRequestFailed):
		return "RequestFailed", http.StatusServiceUnavailable
	case errors.Is(err, ErrPreconditionFailed):
		return "PreconditionFailed", http.StatusPreconditionFailed
	default:
		return "Internal", http.StatusInternalServerError
	}
}

// Handler serves a Store over the HTTP dialect above. Use it to run the
// object store as a standalone service (cmd/gowren-server); the virtual-time
// experiment harnesses use the Store directly because real sockets cannot
// block on a simulated clock.
func Handler(store *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, store.Stats())
	})
	mux.HandleFunc("GET /b", func(w http.ResponseWriter, _ *http.Request) {
		names, err := store.ListBuckets()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, names)
	})
	mux.HandleFunc("PUT /b/{bucket}", func(w http.ResponseWriter, r *http.Request) {
		if err := store.CreateBucket(r.PathValue("bucket")); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("HEAD /b/{bucket}", func(w http.ResponseWriter, r *http.Request) {
		ok, err := store.BucketExists(r.PathValue("bucket"))
		if err != nil {
			writeErr(w, err)
			return
		}
		if !ok {
			w.Header().Set(headerError, "NoSuchBucket")
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /b/{bucket}", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		maxKeys := 0
		if v := q.Get("max-keys"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad max-keys", http.StatusBadRequest)
				return
			}
			maxKeys = n
		}
		res, err := store.List(r.PathValue("bucket"), q.Get("prefix"), q.Get("marker"), maxKeys)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("DELETE /b/{bucket}", func(w http.ResponseWriter, r *http.Request) {
		if err := store.DeleteBucket(r.PathValue("bucket")); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("PUT /b/{bucket}/{key...}", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var meta ObjectMeta
		switch ifMatch, ifNone := r.Header.Get("If-Match"), r.Header.Get("If-None-Match"); {
		case ifNone == "*" && ifMatch == "":
			meta, err = store.PutIf(r.PathValue("bucket"), r.PathValue("key"), body, "")
		case ifNone != "":
			http.Error(w, "unsupported precondition: only If-None-Match: * or If-Match", http.StatusBadRequest)
			return
		case ifMatch != "":
			meta, err = store.PutIf(r.PathValue("bucket"), r.PathValue("key"), body, ifMatch)
		default:
			meta, err = store.Put(r.PathValue("bucket"), r.PathValue("key"), body)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		setMetaHeaders(w, meta)
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /b/{bucket}/{key...}", func(w http.ResponseWriter, r *http.Request) {
		offset, length, haveRange, err := parseRange(r.Header.Get("Range"))
		if err != nil {
			writeErr(w, fmt.Errorf("%w: %v", ErrInvalidRange, err))
			return
		}
		var (
			data []byte
			meta ObjectMeta
		)
		if haveRange {
			data, meta, err = store.GetRange(r.PathValue("bucket"), r.PathValue("key"), offset, length)
		} else {
			data, meta, err = store.Get(r.PathValue("bucket"), r.PathValue("key"))
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		setMetaHeaders(w, meta)
		// A declared length keeps the body out of chunked framing and lets
		// the client read it into one buffer of that size.
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		if haveRange {
			w.WriteHeader(http.StatusPartialContent)
		}
		_, _ = w.Write(data)
	})
	mux.HandleFunc("HEAD /b/{bucket}/{key...}", func(w http.ResponseWriter, r *http.Request) {
		meta, err := store.Head(r.PathValue("bucket"), r.PathValue("key"))
		if err != nil {
			writeErr(w, err)
			return
		}
		setMetaHeaders(w, meta)
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("DELETE /b/{bucket}/{key...}", func(w http.ResponseWriter, r *http.Request) {
		if err := store.Delete(r.PathValue("bucket"), r.PathValue("key")); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func setMetaHeaders(w http.ResponseWriter, meta ObjectMeta) {
	w.Header().Set("ETag", meta.ETag)
	w.Header().Set(headerObjectSize, strconv.FormatInt(meta.Size, 10))
	w.Header().Set(headerLastModified, meta.LastModified.UTC().Format("2006-01-02T15:04:05.000000000Z"))
}

func writeErr(w http.ResponseWriter, err error) {
	code, status := codeForErr(err)
	w.Header().Set(headerError, code)
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// maxSizedBody caps the buffer readBody sizes from a declared length, so a
// lying header cannot force a huge allocation before any byte arrives.
const maxSizedBody = 64 << 20

// readBody reads a whole request or response body. A body that declares its
// length, up to maxSizedBody, is read once into a buffer of exactly that
// size; net/http bounds the reader to the declaration, so a short body is
// io.ErrUnexpectedEOF and a long one is cut, as with io.ReadAll. An
// undeclared (-1) or larger length grows a buffer as it reads.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxSizedBody {
		return io.ReadAll(r)
	}
	buf := make([]byte, declared)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseRange parses "bytes=start-end" (end inclusive, optional) into an
// offset and length for GetRange. haveRange is false for an empty header.
func parseRange(h string) (offset, length int64, haveRange bool, err error) {
	if h == "" {
		return 0, 0, false, nil
	}
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok {
		return 0, 0, false, fmt.Errorf("unsupported range unit in %q", h)
	}
	startStr, endStr, ok := strings.Cut(spec, "-")
	if !ok {
		return 0, 0, false, fmt.Errorf("malformed range %q", h)
	}
	start, err := strconv.ParseInt(startStr, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("malformed range start %q", h)
	}
	if endStr == "" {
		return start, -1, true, nil
	}
	end, err := strconv.ParseInt(endStr, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("malformed range end %q", h)
	}
	if end < start {
		return 0, 0, false, fmt.Errorf("inverted range %q", h)
	}
	if end-start == math.MaxInt64 {
		return 0, 0, false, fmt.Errorf("range length overflows in %q", h)
	}
	return start, end - start + 1, true, nil
}
