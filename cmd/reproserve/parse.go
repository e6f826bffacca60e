package main

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/serve"
	"repro/internal/sqlagg"
)

// aggKinds maps the SQL-ish aggregate names of the /query endpoint to
// the sqlagg catalog.
var aggKinds = map[string]sqlagg.AggKind{
	"SUM":         sqlagg.AggSum,
	"COUNT":       sqlagg.AggCount,
	"AVG":         sqlagg.AggAvg,
	"VAR_POP":     sqlagg.AggVarPop,
	"VAR_SAMP":    sqlagg.AggVarSamp,
	"STDDEV_POP":  sqlagg.AggStddevPop,
	"STDDEV_SAMP": sqlagg.AggStddevSamp,
	"MIN":         sqlagg.AggMin,
	"MAX":         sqlagg.AggMax,
}

// parseAggList parses a compact aggregate list like "SUM(0),AVG(1)"
// into specs, applying levels to every spec (0 = default).
func parseAggList(s string, levels int) ([]sqlagg.AggSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty aggregate list (expected e.g. aggs=SUM(0),AVG(1))")
	}
	var specs []sqlagg.AggSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		open := strings.IndexByte(item, '(')
		if open < 0 || !strings.HasSuffix(item, ")") {
			return nil, fmt.Errorf("malformed aggregate %q (expected KIND(col))", item)
		}
		kind, ok := aggKinds[strings.ToUpper(strings.TrimSpace(item[:open]))]
		if !ok {
			return nil, fmt.Errorf("unknown aggregate kind %q", item[:open])
		}
		col, err := strconv.Atoi(strings.TrimSpace(item[open+1 : len(item)-1]))
		if err != nil || col < 0 {
			return nil, fmt.Errorf("bad column index in %q", item)
		}
		specs = append(specs, sqlagg.AggSpec{Kind: kind, Levels: levels, Col: col})
	}
	return specs, nil
}

// intParam reads the integer query parameter name: def when it is
// absent, an ErrBadQuery naming the parameter when it is present but
// not an integer — a malformed value must never silently become a
// different, valid query.
func intParam(q url.Values, name string, def int) (int, error) {
	if !q.Has(name) {
		return def, nil
	}
	v, err := strconv.Atoi(q.Get(name))
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %s=%q is not an integer", serve.ErrBadQuery, name, q.Get(name))
	}
	return v, nil
}
