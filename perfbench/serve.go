package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kfusion/internal/faultfs"
	"kfusion/internal/httpapi"
	"kfusion/internal/server"
)

// spanHeader carries the client span's ID to the wrapped handler, so the
// handler span of a request is the child of the client span that sent it.
const spanHeader = "X-Perfbench-Span"

// serverTrace wraps one server's handler and state filesystem. cur is the
// span of the write-path call in progress (an append handler or a
// Hydrate); the filesystem's spans hang under it.
type serverTrace struct {
	tr  *tracer
	fs  fsStats
	cur atomic.Int64
}

func (st *serverTrace) wrap(h http.Handler) http.Handler {
	if st.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		name := "server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == httpapi.PathAppend:
			name = "server.append"
		case strings.HasPrefix(r.URL.Path, httpapi.PathItems):
			name = "server.read"
		}
		sp := st.tr.start(parent, name)
		if name == "server.append" {
			st.cur.Store(sp.id)
			defer st.cur.Store(0)
		}
		defer sp.end()
		h.ServeHTTP(w, r)
	})
}

// liveServer is a kfserved core mounted on a loopback listener.
type liveServer struct {
	srv   *server.Server
	st    *serverTrace
	dir   string
	hs    *http.Server
	url   string
	serve chan error
}

// openServer builds and hydrates a server on dir — the program's own
// set-up — and returns it before any listener exists. Under tracing the
// state filesystem is wrapped, and New + Hydrate is a root span named
// rootName with Hydrate as its server.hydrate child.
func openServer(tr *tracer, dir, method, rootName string) (*liveServer, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	ls := &liveServer{st: &serverTrace{tr: tr}, dir: dir}
	cfg := server.Config{StateDir: dir, Method: method}
	if tr != nil {
		osfs, err := faultfs.NewOS(dir)
		if err != nil {
			return nil, 0, err
		}
		cfg.FS = &countingFS{inner: osfs, st: &ls.st.fs, tr: tr, parent: ls.st.cur.Load}
	}
	root := tr.start(0, rootName)
	t0 := time.Now()
	srv, err := server.New(cfg)
	if err == nil {
		sp := tr.start(root.id, "server.hydrate")
		ls.st.cur.Store(sp.id)
		err = srv.Hydrate()
		ls.st.cur.Store(0)
		sp.end()
	}
	took := time.Since(t0)
	root.end()
	if err != nil {
		return nil, 0, fmt.Errorf("open %s server: %w", method, err)
	}
	ls.srv = srv
	return ls, took, nil
}

// listen mounts the (wrapped) handler on a loopback port.
func (ls *liveServer) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ls.hs = &http.Server{Handler: ls.st.wrap(ls.srv.Handler())}
	ls.url = "http://" + ln.Addr().String()
	ls.serve = make(chan error, 1)
	go func() { ls.serve <- ls.hs.Serve(ln) }()
	return nil
}

// close stops the listener (waiting for Serve to return) and closes the
// server, which writes its final snapshot.
func (ls *liveServer) close() error {
	var err error
	if ls.hs != nil {
		err = ls.hs.Shutdown(context.Background())
		if serr := <-ls.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop connection: its transport keeps a single
// connection, so each workload loop adds exactly one.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request under a client span named name, decodes a 200 body
// into out, and returns the round-trip time.
func (c *client) do(parent int64, name, method, path string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	sp := c.tr.start(parent, name)
	if sp.t != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(t0)
	sp.end()
	if err != nil {
		return rtt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return rtt, nil
}

// scan reads every served posterior with one /v1/triples request.
func (c *client) scan() (*httpapi.TriplesResponse, error) {
	var resp httpapi.TriplesResponse
	if _, err := c.do(0, "http.scan", http.MethodGet, httpapi.PathTriples+"?limit=1000000000", nil, &resp); err != nil {
		return nil, err
	}
	if resp.Total != len(resp.Triples) {
		return nil, fmt.Errorf("scan returned %d of %d triples", len(resp.Triples), resp.Total)
	}
	return &resp, nil
}

// digest fingerprints posteriors in served order, probabilities by their
// float64 bits, so two equal digests mean bit-identical outputs.
func digest(rows []httpapi.FusedTriple) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rows {
		io.WriteString(h, r.Subject+"\x00"+r.Predicate+"\x00"+r.Object+"\x00")
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Probability))
		h.Write(b[:])
		if r.Predicted {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// dirBytes sums the sizes of the files in a state directory.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// copyDir copies a state directory file by file: a crash image of a live
// server (nothing is closed or flushed first).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile streams one file, so a copy never holds a whole state file in
// the measuring process's memory.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
