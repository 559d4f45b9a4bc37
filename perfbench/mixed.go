package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"kfusion/internal/httpapi"
)

// readRate is the open-loop reader's schedule, in reads per second.
const readRate = 1000

// mixedOut is one serve-mixed phase: kfserved twolayer on disk, a
// closed-loop appender beside an open-loop reader.
type mixedOut struct {
	setup    []time.Duration
	wall     time.Duration
	appendMs []float64
	readMs   []float64 // from each read's due time
	lateMs   []float64 // how late the generator sent each read
	digest   string
}

func runMixed(tr *tracer, in *inputs, dir string, reps int, chk *checker) (*mixedOut, error) {
	out := &mixedOut{}
	var ls *liveServer
	for r := 0; r < reps; r++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		// Set-up is New + Hydrate + the cold base load; the listener start
		// between them is the benchmark's, not the program's.
		var took time.Duration
		var err error
		ls, took, err = openServer(tr, filepath.Join(dir, fmt.Sprintf("mixed-%d", r)), "twolayer", "setup.mixed")
		if err != nil {
			return nil, err
		}
		if err := ls.listen(); err != nil {
			return nil, err
		}
		c := newClient(ls.url, tr)
		var resp httpapi.AppendResponse
		rtt, err := c.do(0, "http.append", http.MethodPost, httpapi.PathAppend, in.base.json, &resp)
		c.close()
		chk.attempt(err)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took+rtt)
	}
	defer ls.close()

	appender := newClient(ls.url, tr)
	defer appender.close()
	reader := newClient(ls.url, tr)
	defer reader.close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = out.readLoop(reader, in.items, stop, chk)
	}()

	root := tr.start(0, "phase.mixed")
	t0 := time.Now()
	var appendErr error
	for i, body := range in.mixed {
		var resp httpapi.AppendResponse
		rtt, err := appender.do(root.id, "http.append", http.MethodPost, httpapi.PathAppend, body.json, &resp)
		chk.attempt(err)
		if err != nil {
			appendErr = err
			break
		}
		out.appendMs = append(out.appendMs, ms(rtt))
		chk.check(resp.Generation == i+2 && resp.Added == body.n,
			"serve-mixed: append %d published generation %d with %d added, want %d with %d", i, resp.Generation, resp.Added, i+2, body.n)
	}
	out.wall = time.Since(t0)
	root.end()
	close(stop)
	wg.Wait()
	if appendErr != nil {
		return nil, appendErr
	}
	if readErr != nil {
		return nil, readErr
	}

	var status httpapi.StatusResponse
	_, err := appender.do(0, "http.status", http.MethodGet, httpapi.PathStatus, nil, &status)
	chk.attempt(err)
	if err != nil {
		return nil, err
	}
	chk.check(status.Consumed == in.n && status.Generation == 1+len(in.mixed),
		"serve-mixed: status reports generation %d consumed %d, sent %d batches of %d extractions", status.Generation, status.Consumed, 1+len(in.mixed), in.n)
	scan, err := appender.scan()
	chk.attempt(err)
	if err != nil {
		return nil, err
	}
	out.digest = digest(scan.Triples)
	return out, nil
}

// readLoop issues GET /v1/items/{id} on a fixed schedule until stop closes,
// cycling through paths. Each read is timed from its due time, so a stall
// also charges the reads queued behind it; lateness is how far behind the
// schedule the generator itself ran. Every read must succeed, and the
// generation this connection observes must never go backwards.
func (m *mixedOut) readLoop(c *client, paths []string, stop <-chan struct{}, chk *checker) error {
	root := c.tr.start(0, "loadgen.reader")
	defer root.end()
	interval := time.Second / readRate
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	start := time.Now()
	lastGen := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return nil
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		sent := time.Now()
		var resp struct {
			Generation int `json:"generation"`
		}
		_, err := c.do(root.id, "http.read", http.MethodGet, paths[i%len(paths)], nil, &resp)
		done := time.Now()
		chk.attempt(err)
		if err != nil {
			return err
		}
		m.lateMs = append(m.lateMs, ms(sent.Sub(due)))
		m.readMs = append(m.readMs, ms(done.Sub(due)))
		chk.check(resp.Generation >= lastGen, "serve-mixed: read saw generation %d after %d", resp.Generation, lastGen)
		lastGen = resp.Generation
	}
}
