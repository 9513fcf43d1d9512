package serve

import (
	"fmt"
	"net/url"
	"strconv"

	"corroborate/internal/core"
	"corroborate/internal/pipeline"
	"corroborate/internal/truth"
)

// queryParams is the parsed form of GET /query's selector and shaping
// parameters. The zero value via newQueryParams matches everything and
// pages nothing out.
type queryParams struct {
	fact       string      // exact fact-name selector; "" matches any
	prefix     string      // fact-name prefix selector; "" matches any
	batch      int         // exact batch selector; -1 matches any
	prediction truth.Label // prediction selector; Unknown matches any
	offset     int         // pagination start
	limit      int         // page size; -1 means to the end
	top        int         // top-k by probability; 0 means paging mode
}

func newQueryParams() queryParams {
	return queryParams{batch: -1, limit: -1}
}

// filtered reports whether any selector is active (σ needed at all).
func (p queryParams) filtered() bool {
	return p.fact != "" || p.prefix != "" || p.batch >= 0 || p.prediction != truth.Unknown
}

// parseQueryParams validates the full /query parameter surface:
//
//	fact=<name>        exact fact name
//	prefix=<p>         fact-name prefix
//	batch=<n>          single batch index
//	prediction=true|false
//	offset=<n>&limit=<n>  pagination over the matched stream
//	top=<k>            the k highest-probability matches instead of a page
//
// Unknown parameters, malformed or negative numbers, and conflicting
// shapes (top combined with offset/limit) are rejected — a typo must fail
// loudly rather than silently return the unfiltered log.
func parseQueryParams(q url.Values) (queryParams, error) {
	p := newQueryParams()
	for key, vals := range q {
		if len(vals) != 1 {
			return p, fmt.Errorf("parameter %q given %d times, want once", key, len(vals))
		}
		v := vals[0]
		switch key {
		case "fact":
			p.fact = v
		case "prefix":
			p.prefix = v
		case "batch":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad batch %q", v)
			}
			p.batch = n
		case "prediction":
			switch v {
			case "true":
				p.prediction = truth.True
			case "false":
				p.prediction = truth.False
			default:
				return p, fmt.Errorf("bad prediction %q (want true or false)", v)
			}
		case "offset":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad offset %q", v)
			}
			p.offset = n
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad limit %q", v)
			}
			p.limit = n
		case "top":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return p, fmt.Errorf("bad top %q (want a positive count)", v)
			}
			p.top = n
		default:
			return p, fmt.Errorf("unknown parameter %q", key)
		}
	}
	if p.top > 0 && (p.offset != 0 || p.limit != -1) {
		return p, fmt.Errorf("top cannot be combined with offset/limit")
	}
	return p, nil
}

// matches is the σ predicate of one query over the decided-fact stream.
func (p queryParams) matches(f core.StreamFact) bool {
	if p.fact != "" && f.Name != p.fact {
		return false
	}
	if p.prefix != "" && (len(f.Name) < len(p.prefix) || f.Name[:len(p.prefix)] != p.prefix) {
		return false
	}
	if p.batch >= 0 && f.Batch != p.batch {
		return false
	}
	if p.prediction != truth.Unknown && f.Prediction != p.prediction {
		return false
	}
	return true
}

// evalQuery evaluates one parsed query lazily over the snapshot: one pass
// over the decided-fact log through the snapshot's iteration hook, with
// the selectors as σ operators and the shape as the terminal. Memory is
// O(page) for pagination and O(k) for top-k — never a copy of the matched
// set, let alone the log (alloc ceilings in query_test.go pin this).
//
// An unfiltered page needs no pass at all: the snapshot's log is
// immutable, so the page is a capacity-capped subslice of it. This halves
// the handler time of a 5000-fact page, where the pass and the page copy
// cost as much as writing the JSON.
func evalQuery(snap *core.StreamSnapshot, p queryParams) (total int, facts []core.StreamFact) {
	if !p.filtered() && p.top == 0 {
		total = len(snap.Facts)
		lo, hi := min(p.offset, total), total
		if p.limit >= 0 && p.limit < hi-lo {
			hi = lo + p.limit
		}
		return total, snap.Facts[lo:hi:hi]
	}
	seq := pipeline.FromFunc[core.StreamFact](snap.EachFact)
	if p.filtered() {
		seq = pipeline.Filter(seq, p.matches)
	}
	if p.top > 0 {
		facts, total = pipeline.TopK(seq, p.top, func(a, b core.StreamFact) bool {
			return a.Probability > b.Probability
		})
		return total, facts
	}
	return pipeline.Page(seq, p.offset, p.limit)
}
