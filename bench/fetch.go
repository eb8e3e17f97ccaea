package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"countrymon/internal/serve"
)

// respWriter is a reusable http.ResponseWriter that keeps the response:
// the correctness checks compare bodies and ETags, so they are retained
// rather than counted and dropped.
type respWriter struct {
	h      http.Header
	status int
	body   []byte
}

func newRespWriter() *respWriter { return &respWriter{h: make(http.Header, 4)} }

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *respWriter) reset() {
	clear(w.h)
	w.status, w.body = 0, w.body[:0]
}
func (w *respWriter) etag() string {
	if v := w.h["Etag"]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// newGET builds the request an in-process handler needs: method, URL and an
// empty header. It skips httptest.NewRequest's parsing, which costs several
// times what a cached serve hit does.
func newGET(path, rawQuery string) *http.Request {
	return &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: path, RawQuery: rawQuery},
		Header: make(http.Header),
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
}

// get serves one request in process and returns its latency-free outcome in
// w (reset first).
func get(h http.Handler, w *respWriter, req *http.Request) {
	w.reset()
	h.ServeHTTP(w, req)
}

// watermarkOf extracts the "watermark" field of a serve JSON body without
// decoding the columns.
func watermarkOf(body []byte) (int, bool) {
	const key = `"watermark":`
	i := strings.Index(string(body[:min(len(body), 256)]), key)
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	return n, err == nil
}

// edgeRounds is how far back a live-edge poll asks: the last day of
// bi-hourly rounds.
const edgeRounds = 12

// edgeFetcher polls a store's live edge the way the round workloads do after
// every round: the round's series is fetched twice, a render and then a
// repeat that must be a byte-identical cache hit. It rotates over the
// store's entities.
type edgeFetcher struct {
	h      http.Handler
	path   string
	keys   []string
	w1, w2 *respWriter
}

func newEdgeFetcher(h http.Handler, path string, store *serve.Store) *edgeFetcher {
	f := &edgeFetcher{h: h, path: path, w1: newRespWriter(), w2: newRespWriter()}
	for _, e := range store.Entities() {
		f.keys = append(f.keys, e.Key)
	}
	return f
}

func (f *edgeFetcher) request(round int) *http.Request {
	since := max(round-edgeRounds+1, 0)
	return newGET(f.path, "entity="+f.keys[round%len(f.keys)]+"&since="+strconv.Itoa(since))
}

// fetch serves the round's request twice.
func (f *edgeFetcher) fetch(round int) {
	req := f.request(round)
	get(f.h, f.w1, req)
	get(f.h, f.w2, req)
}

// verify checks the pair of responses for round: both 200, the first at the
// round's watermark, the repeat byte- and ETag-identical.
func (f *edgeFetcher) verify(round int) error {
	if f.w1.status != 200 || f.w2.status != 200 {
		return fmt.Errorf("%s round %d: status %d/%d", f.path, round, f.w1.status, f.w2.status)
	}
	if wm, ok := watermarkOf(f.w1.body); !ok || wm != round+1 {
		return fmt.Errorf("%s round %d: served watermark %d", f.path, round, wm)
	}
	if !bytes.Equal(f.w1.body, f.w2.body) || f.w1.etag() != f.w2.etag() || f.w1.etag() == "" {
		return fmt.Errorf("%s round %d: repeat fetch differs from first", f.path, round)
	}
	return nil
}
