package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"kfusion/internal/httpapi"
)

// setupReps is how many times the first pass of a run sets each server up
// and recovers the crash image; later passes do each once. So a run has at
// least three set-up and recovery samples to take the median of, even when
// it has room for one or two passes only. The last server set up is the
// one measured.
const setupReps = 3

// ingestOut is one ingest phase: kfserved popaccu on disk, fed the whole
// feed by one closed-loop connection, then recovered from a crash image.
type ingestOut struct {
	setup     []time.Duration
	wall      time.Duration
	appendMs  []float64
	recover   []time.Duration
	diskBytes int64
	served    []httpapi.FusedTriple
	digest    string
	st        *serverTrace // the measured server's trace
	recoverST *serverTrace // the first recovery's trace
}

func runIngest(tr *tracer, in *inputs, dir string, reps int, chk *checker) (*ingestOut, error) {
	out := &ingestOut{}
	var ls *liveServer
	for r := 0; r < reps; r++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		ls, took, err = openServer(tr, filepath.Join(dir, fmt.Sprintf("ingest-%d", r)), "popaccu", "setup.ingest")
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took)
	}
	out.st = ls.st
	if err := ls.listen(); err != nil {
		return nil, err
	}
	defer ls.close()
	c := newClient(ls.url, tr)
	defer c.close()

	root := tr.start(0, "phase.ingest")
	t0 := time.Now()
	for i, body := range in.ingest {
		var resp httpapi.AppendResponse
		rtt, err := c.do(root.id, "http.append", http.MethodPost, httpapi.PathAppend, body.json, &resp)
		chk.attempt(err)
		if err != nil {
			root.end()
			return nil, err
		}
		out.appendMs = append(out.appendMs, ms(rtt))
		chk.check(resp.Generation == i+1 && resp.Added == body.n,
			"ingest: append %d published generation %d with %d added, want %d with %d", i, resp.Generation, resp.Added, i+1, body.n)
	}
	out.wall = time.Since(t0)
	root.end()

	var status httpapi.StatusResponse
	_, err := c.do(0, "http.status", http.MethodGet, httpapi.PathStatus, nil, &status)
	chk.attempt(err)
	if err != nil {
		return nil, err
	}
	chk.check(status.Consumed == in.n && status.Generation == len(in.ingest),
		"ingest: status reports generation %d consumed %d, sent %d batches of %d extractions", status.Generation, status.Consumed, len(in.ingest), in.n)
	scan, err := c.scan()
	chk.attempt(err)
	if err != nil {
		return nil, err
	}
	out.served, out.digest = scan.Triples, digest(scan.Triples)
	if out.diskBytes, err = dirBytes(ls.dir); err != nil {
		return nil, err
	}

	// Crash images: copies of the live state directory, never closed.
	// Each is recovered by a fresh server and must serve the same bits.
	// Only the first recovery is traced.
	for r := 0; r < reps; r++ {
		img := filepath.Join(dir, fmt.Sprintf("crash-%d", r))
		if err := copyDir(ls.dir, img); err != nil {
			return nil, err
		}
		rtr := tr
		if r > 0 {
			rtr = nil
		}
		rec, took, err := openServer(rtr, img, "popaccu", "phase.recover")
		chk.attempt(err)
		if err != nil {
			return nil, err
		}
		out.recover = append(out.recover, took)
		if r == 0 {
			out.recoverST = rec.st
		}
		if err := rec.listen(); err != nil {
			return nil, err
		}
		rc := newClient(rec.url, nil)
		rscan, err := rc.scan()
		rc.close()
		chk.attempt(err)
		if cerr := rec.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		chk.check(digest(rscan.Triples) == out.digest,
			"ingest: crash-image recovery serves digest %s, live server served %s", digest(rscan.Triples), out.digest)
	}
	return out, nil
}
