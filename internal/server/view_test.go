package server

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/kb"
)

// viewBatches cuts the ScaleSmall feed into n contiguous batches.
func viewBatches(n int) [][]extract.Extraction {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	var out [][]extract.Extraction
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n:(i+1)*len(xs)/n])
	}
	return out
}

// newMemServer builds a hydrated server over fsys without an HTTP listener.
func newMemServer(t *testing.T, fsys faultfs.FS, method string) *Server {
	t.Helper()
	s, err := New(Config{FS: fsys, Method: method, SnapshotEvery: 1000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fullBuild indexes v's generation from nil, the reference every extended
// view must answer like.
func fullBuild(v *genView) *genView {
	return newGenView(nil, &genstore.State{Batches: v.generation, Consumed: v.consumed, Result: v.res})
}

// viewAnswers is every read a view can serve: the item response of each
// item, the unfiltered subject query of each subject, and a missing item and
// subject.
type viewAnswers struct {
	items    []any
	subjects []any
}

func answers(v *genView) viewAnswers {
	var a viewAnswers
	seenItem := map[kb.DataItem]bool{}
	seenSubject := map[kb.EntityID]bool{}
	for _, r := range v.triples() {
		it := r.Triple.Item()
		if !seenItem[it] {
			seenItem[it] = true
			resp, ok := v.item(string(it.Subject), string(it.Predicate))
			a.items = append(a.items, resp, ok)
		}
		if !seenSubject[it.Subject] {
			seenSubject[it.Subject] = true
			a.subjects = append(a.subjects, v.triplesQuery(string(it.Subject), "", -1, math.MaxInt))
		}
	}
	resp, ok := v.item("/m/no-such-subject", "/no/such/predicate")
	a.items = append(a.items, resp, ok)
	a.subjects = append(a.subjects, v.triplesQuery("/m/no-such-subject", "", -1, math.MaxInt))
	return a
}

// checkAgainstRows asserts v's indexes group rows exactly as a naive map
// over the rows would, the grouping the read routes promise.
func checkAgainstRows(t *testing.T, v *genView) {
	t.Helper()
	rows := v.triples()
	byItem := map[kb.DataItem][]int32{}
	bySubject := map[kb.EntityID][]int32{}
	for i, r := range rows {
		byItem[r.Triple.Item()] = append(byItem[r.Triple.Item()], int32(i))
		bySubject[r.Triple.Subject] = append(bySubject[r.Triple.Subject], int32(i))
	}
	for it, want := range byItem {
		if got := v.byItem.lookup(itemKeys, rows, it); !slices.Equal(got, want) {
			t.Fatalf("item %s: rows %v, want %v", it, got, want)
		}
	}
	for s, want := range bySubject {
		if got := v.bySubject.lookup(subjectKeys, rows, s); !slices.Equal(got, want) {
			t.Fatalf("subject %s: rows %v, want %v", s, got, want)
		}
	}
}

// assertLikeFullBuild asserts the published view answers every read exactly
// as a build from nil of the same generation does.
func assertLikeFullBuild(t *testing.T, s *Server) {
	t.Helper()
	v := s.current.Load()
	full := fullBuild(v)
	checkAgainstRows(t, full)
	if got, want := answers(v), answers(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("generation %d: extended view answers differ from a full build", v.generation)
	}
}

// TestIncrementalViewMatchesFullBuild pins the O(batch) publish: at every
// generation, on both engines, and across a crash-restart (a hydrated view
// extended by later appends), the published view serves exactly what a
// from-nil build of the same generation serves.
func TestIncrementalViewMatchesFullBuild(t *testing.T) {
	batches := viewBatches(20)
	for _, method := range []string{"popaccu", "twolayer"} {
		t.Run(method, func(t *testing.T) {
			mem := faultfs.NewMem()
			a := newMemServer(t, mem, method)
			for _, b := range batches[:12] {
				if _, err := a.Append(b); err != nil {
					t.Fatal(err)
				}
				assertLikeFullBuild(t, a)
			}
			// Restart on the journal alone, then keep appending to the
			// hydrated view.
			b := newMemServer(t, mem.Clone(), method)
			assertLikeFullBuild(t, b)
			for _, batch := range batches[12:] {
				if _, err := b.Append(batch); err != nil {
					t.Fatal(err)
				}
				assertLikeFullBuild(t, b)
			}
			if g := b.Status().Generation; g != len(batches) {
				t.Fatalf("restarted chain ended at generation %d, want %d", g, len(batches))
			}
		})
	}
}

// TestNonPrefixRowsRebuild pins the prefix check: extending from a view
// whose rows are not a prefix of the new rows builds from nil instead.
func TestNonPrefixRowsRebuild(t *testing.T) {
	s := newMemServer(t, faultfs.NewMem(), "popaccu")
	if _, err := s.Append(viewBatches(20)[0]); err != nil {
		t.Fatal(err)
	}
	prev := s.current.Load()
	rows := slices.Clone(prev.triples())
	slices.Reverse(rows)
	rows = append(rows, fusion.FusedTriple{Triple: kb.Triple{Subject: "/m/new", Predicate: "/p"}})
	next := newGenView(prev, &genstore.State{Batches: 2, Result: &fusion.Result{Triples: rows}})
	checkAgainstRows(t, next)
}

// TestOldViewsImmutableUnderAppends pins the concurrency contract: readers
// holding generation g keep getting exactly what a fresh build of g served
// while the appender publishes later generations that extend g's arrays.
// CI runs it under -race, which also catches any write into an array an
// older view still reads.
func TestOldViewsImmutableUnderAppends(t *testing.T) {
	batches := viewBatches(20)
	s := newMemServer(t, faultfs.NewMem(), "popaccu")
	for _, b := range batches[:5] {
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	old := s.current.Load()
	want := answers(fullBuild(old))

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !reflect.DeepEqual(answers(old), want) {
					errs <- "generation 5 view changed under later appends"
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, b := range batches[5:] {
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !reflect.DeepEqual(answers(old), want) {
		t.Fatal("generation 5 view changed after later appends")
	}
}

// TestIndexLookupDoesNotAllocate pins that the read index answers hits and
// misses without allocating.
func TestIndexLookupDoesNotAllocate(t *testing.T) {
	s := newMemServer(t, faultfs.NewMem(), "popaccu")
	for _, b := range viewBatches(20)[:3] {
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	v := s.current.Load()
	rows := v.triples()
	hit := rows[len(rows)/2].Triple
	miss := kb.DataItem{Subject: "/m/no-such-subject", Predicate: hit.Predicate}
	allocs := testing.AllocsPerRun(200, func() {
		if len(v.byItem.lookup(itemKeys, rows, hit.Item())) == 0 ||
			len(v.bySubject.lookup(subjectKeys, rows, hit.Subject)) == 0 ||
			v.byItem.lookup(itemKeys, rows, miss) != nil ||
			v.bySubject.lookup(subjectKeys, rows, miss.Subject) != nil {
			panic("lookup answered wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("index lookup allocates %v times per call, want 0", allocs)
	}
}
