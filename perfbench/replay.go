package main

import (
	"encoding/json"
	"fmt"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/httpapi"
	"kfusion/internal/twolayer"
)

// The server's write path runs inside one handler span, so the traced run
// gets its incremental split by replaying the same batch sequence in
// process through the public calls the server's method driver makes, at
// the server's default policy (Workers 0, one warm EM round per append
// after a cold first batch). The replay's final posteriors must equal the
// served ones bit for bit.
const warmRounds = 1

// decodeBodies turns append bodies back into the batches the server saw.
func decodeBodies(bodies []body) ([][]extract.Extraction, error) {
	out := make([][]extract.Extraction, len(bodies))
	for i, b := range bodies {
		var req httpapi.AppendRequest
		if err := json.Unmarshal(b.json, &req); err != nil {
			return nil, err
		}
		batch, err := httpapi.ToBatch(req.Extractions)
		if err != nil {
			return nil, err
		}
		out[i] = batch
	}
	return out, nil
}

// replayClaims replays the popaccu chain: ClaimStream.Add, then
// Compile (first batch) or Compiled.Append, then FuseWarm.
func replayClaims(tr *tracer, batches [][]extract.Extraction) (string, error) {
	root := tr.start(0, "replay.ingest")
	defer root.end()
	fc := fusion.PopAccuConfig()
	warm := fc
	warm.Rounds = warmRounds
	stream := fusion.NewClaimStream(fc.Granularity)
	var c *fusion.Compiled
	var res *fusion.Result
	for _, batch := range batches {
		sp := tr.start(root.id, "fusion.stream_add")
		claims := stream.Add(batch)
		sp.end()
		var err error
		cfg, name := warm, "fusion.fuse_warm"
		if c == nil {
			sp = tr.start(root.id, "fusion.compile")
			c, err = fusion.CompileWorkers(claims, 0, 0)
			cfg, name = fc, "fusion.fuse_cold"
		} else {
			sp = tr.start(root.id, "fusion.append")
			c, err = c.Append(claims)
		}
		sp.end()
		if err != nil {
			return "", fmt.Errorf("replay popaccu: %w", err)
		}
		sp = tr.start(root.id, name)
		res, err = c.FuseWarm(cfg, res)
		sp.end()
		if err != nil {
			return "", fmt.Errorf("replay popaccu: %w", err)
		}
	}
	return resultDigest(res), nil
}

// replayTwoLayer replays the twolayer chain: extract.Compile (base batch)
// or extract.Compiled.Append, then twolayer.FuseCompiledWarm.
func replayTwoLayer(tr *tracer, batches [][]extract.Extraction) (string, error) {
	root := tr.start(0, "replay.mixed")
	defer root.end()
	tc := twolayer.DefaultConfig()
	warm := tc
	warm.Rounds = warmRounds
	var g *extract.Compiled
	var res *fusion.Result
	var st *twolayer.State
	for _, batch := range batches {
		cfg, name := warm, "twolayer.fuse_warm"
		if g == nil {
			sp := tr.start(root.id, "extract.compile")
			g = extract.CompileWorkers(batch, tc.SiteLevel, 0)
			sp.end()
			cfg, name = tc, "twolayer.fuse_cold"
		} else {
			sp := tr.start(root.id, "extract.append")
			g = g.Append(batch)
			sp.end()
		}
		sp := tr.start(root.id, name)
		var err error
		res, st, err = twolayer.FuseCompiledWarm(g, cfg, st)
		sp.end()
		if err != nil {
			return "", fmt.Errorf("replay twolayer: %w", err)
		}
	}
	return resultDigest(res), nil
}

func resultDigest(res *fusion.Result) string {
	rows := make([]httpapi.FusedTriple, len(res.Triples))
	for i, t := range res.Triples {
		rows[i] = httpapi.FromFused(t)
	}
	return digest(rows)
}
