package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kfio"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
)

// shardK is the shard count of the batch phase's item-sharded fusion.
const shardK = 4

// batchOut is one batch phase: the kfuse path over the whole feed.
type batchOut struct {
	wall          time.Duration
	claims        int
	records       int
	graphBytes    int
	maxShardShare float64
	popRounds     int
	tlRounds      int
	shRounds      int
	pop, tl, sh   *fusion.Result
}

// runBatch decodes the feed bytes and runs the three fusions a kfuse user
// runs over one corpus: POPACCU, two-layer, and K=4 item-sharded POPACCU
// appended in fixed chunks. The wall time runs from the feed bytes to the
// third result.
func runBatch(tr *tracer, feed []byte, chunk int) (*batchOut, error) {
	out := &batchOut{}
	root := tr.start(0, "phase.batch")
	defer root.end()
	at := func(name string) active { return tr.start(root.id, name) }
	t0 := time.Now()

	sp := at("kfio.decode")
	xs, err := kfio.ReadExtractions(bytes.NewReader(feed))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("decode feed: %w", err)
	}
	out.records = len(xs)

	cfg := fusion.PopAccuConfig()
	sp = at("fusion.claims")
	claims := fusion.Claims(xs, cfg.Granularity)
	sp.end()
	out.claims = len(claims)
	sp = at("fusion.compile")
	c, err := fusion.Compile(claims)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("popaccu compile: %w", err)
	}
	claims = nil
	out.graphBytes = c.ApproxBytes()
	sp = at("fusion.fuse")
	out.pop, err = c.Fuse(cfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("popaccu fuse: %w", err)
	}
	c = nil

	tc := twolayer.DefaultConfig()
	tc.SiteLevel = true // kfuse's two-layer preset
	sp = at("extract.compile")
	g := extract.Compile(xs, tc.SiteLevel)
	sp.end()
	sp = at("twolayer.fuse")
	out.tl, err = twolayer.FuseCompiled(g, tc)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("two-layer fuse: %w", err)
	}
	g = nil

	sp = at("shard.new")
	f, err := shard.NewFusion(shardK, cfg.Granularity)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("shard fusion: %w", err)
	}
	for lo := 0; lo < len(xs); lo += chunk {
		hi := min(lo+chunk, len(xs))
		sp = at("shard.append")
		err = f.Append(xs[lo:hi])
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("shard append: %w", err)
		}
	}
	sp = at("shard.fuse")
	out.sh, err = f.Fuse(cfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("shard fuse: %w", err)
	}
	out.wall = time.Since(t0)
	out.popRounds, out.tlRounds, out.shRounds = out.pop.Rounds, out.tl.Rounds, out.sh.Rounds

	for s := 0; s < f.K(); s++ {
		if g := f.Shard(s); g != nil {
			out.maxShardShare = max(out.maxShardShare, float64(g.NumClaims())/float64(f.NumClaims()))
		}
	}
	return out, nil
}

// checkBatch verifies the batch outputs: every probability is finite and in
// [0,1] (or exactly -1 where the filters left no evidence), and the sharded
// result matches the unsharded one within twolayer.RefTol on every triple.
func checkBatch(b *batchOut, chk *checker) {
	for _, r := range []struct {
		name string
		res  *fusion.Result
	}{{"popaccu", b.pop}, {"twolayer", b.tl}, {"sharded popaccu", b.sh}} {
		bad := 0
		for _, t := range r.res.Triples {
			p := t.Probability
			if math.IsNaN(p) || (t.Predicted && (p < 0 || p > 1)) || (!t.Predicted && p != -1) {
				bad++
			}
		}
		chk.check(bad == 0, "batch: %s has %d probabilities outside [0,1]", r.name, bad)
	}
	chk.check(len(b.sh.Triples) == len(b.pop.Triples), "batch: sharded result has %d triples, unsharded %d", len(b.sh.Triples), len(b.pop.Triples))
	unsharded := b.pop.ByTriple()
	maxDiff, missing := 0.0, 0
	for _, t := range b.sh.Triples {
		u, ok := unsharded[t.Triple]
		if !ok {
			missing++
			continue
		}
		maxDiff = max(maxDiff, math.Abs(u.Probability-t.Probability))
	}
	chk.check(missing == 0 && maxDiff <= twolayer.RefTol,
		"batch: K=%d sharded vs unsharded: %d triples missing, max |dp| %.3g > %g", shardK, missing, maxDiff, twolayer.RefTol)
}
