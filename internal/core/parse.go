package core

import (
	"context"
	"fmt"
	"time"

	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/obs"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// parseBatch is how many raw tokens the fused Phase 1 pass lexes before
// handing them on to tidy and the tree builder. Large enough that the
// three clock reads per batch cost nothing next to the work they time,
// small enough that the batch buffers stay a few kilobytes.
const parseBatch = 64

// nodeBytes estimates source bytes per tag tree node, to size the
// builder's first arena chunk from the page length. It sits at the dense
// end of the corpus (15–40 bytes per node, about 22 on average): an
// overestimate leaves part of one chunk unused, an underestimate
// allocates a second chunk twice the size of the first.
const nodeBytes = 16

// phase1Times are the per-stage totals of one fused Phase 1 pass.
type phase1Times struct {
	tokenize, tidy, build time.Duration
}

// ParseGoverned runs Phase 1 — lexing, syntactic normalization, tag
// tree construction — under the page's guard, as one streaming pass:
// the lexer fills a reused batch of parseBatch tokens, the tidy
// normalizer balances it, and the tree builder consumes the balanced
// output, so no page-sized token slice is ever built. The time of each
// stage is summed batch by batch and recorded once at the end as the
// tokenize, tidy and build spans, laid end to end from the pass's
// start. An input past MaxInputBytes, a token-budget blowout, or an
// over-deep/over-large tree surfaces as a typed govern error wrapped
// with the stage that hit it. SkipNormalize feeds the raw stream to
// the builder, which recovers what it can, and records no tidy span.
func (e *Extractor) ParseGoverned(ctx context.Context, html string, g *govern.Guard) (*tagtree.Node, error) {
	start := time.Now()
	var t phase1Times
	root, err := e.fusedParse(html, g, &t)
	obs.RecordSpan(ctx, "tokenize", start, t.tokenize)
	if !e.opts.SkipNormalize {
		obs.RecordSpan(ctx, "tidy", start.Add(t.tokenize), t.tidy)
	}
	obs.RecordSpan(ctx, "build", start.Add(t.tokenize+t.tidy), t.build)
	return root, err
}

// fusedParse is ParseGoverned's pass, adding each stage's time to t.
func (e *Extractor) fusedParse(html string, g *govern.Guard, t *phase1Times) (*tagtree.Node, error) {
	if err := g.Input(len(html)); err != nil {
		return nil, fmt.Errorf("core: tokenize: %w", err)
	}
	lx := htmlparse.NewLexer(html)
	var norm *tidy.Normalizer
	if !e.opts.SkipNormalize {
		norm = tidy.NewNormalizer(g)
	}
	b := tagtree.NewBuilder(g, len(html)/nodeBytes)
	batch := make([]htmlparse.Token, 0, parseBatch)
	now := time.Now()
	for more := true; more; {
		var err error
		batch, err = lx.Lex(batch[:0], parseBatch, g)
		more = len(batch) == parseBatch
		now = lap(&t.tokenize, now)
		if err != nil {
			return nil, fmt.Errorf("core: tokenize: %w", err)
		}
		toks := batch
		if norm != nil {
			for i := 0; i < len(batch) && err == nil; i++ {
				err = norm.Feed(&batch[i])
			}
			if err == nil && !more {
				err = norm.Close()
			}
			toks = norm.Drain()
			now = lap(&t.tidy, now)
			if err != nil {
				return nil, fmt.Errorf("core: tidy: %w", err)
			}
		}
		for i := 0; i < len(toks) && err == nil; i++ {
			err = b.Feed(&toks[i])
		}
		now = lap(&t.build, now)
		if err != nil {
			return nil, fmt.Errorf("core: parse: %w", err)
		}
	}
	root, err := b.Finish()
	lap(&t.build, now)
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	return root, nil
}

// lap adds the time since since to *total and returns the current time,
// the start of the next stage.
func lap(total *time.Duration, since time.Time) time.Time {
	now := time.Now()
	*total += now.Sub(since)
	return now
}
