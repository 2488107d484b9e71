package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by
// its series exactly as rendered, name{labels}.
type scrape map[string]float64

// parseScrape parses the text exposition format (comments skipped).
func parseScrape(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ln := strings.TrimSpace(sc.Text())
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", ln)
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", ln, err)
		}
		out[ln[:i]] = v
	}
	return out, sc.Err()
}

// total sums every series of the metric name whose label set contains
// label (e.g. `stage="decide"`; "" matches all).
func (s scrape) total(name, label string) float64 {
	sum := 0.0
	for key, v := range s {
		n, labels, _ := strings.Cut(key, "{")
		if n == name && strings.Contains(labels, label) {
			sum += v
		}
	}
	return sum
}

// each returns the value of every series of the metric name, keyed by
// its label set.
func (s scrape) each(name string) map[string]float64 {
	out := map[string]float64{}
	for key, v := range s {
		if n, labels, _ := strings.Cut(key, "{"); n == name {
			out[labels] = v
		}
	}
	return out
}

// promDelta is the change between two scrapes of the same targets.
type promDelta struct{ before, after scrape }

// counter is the increase of a counter (summed over matching series).
func (d promDelta) counter(name, label string) float64 {
	return d.after.total(name, label) - d.before.total(name, label)
}

// histMean is the mean observation of a histogram over the interval,
// Δ_sum / Δ_count, in the histogram's unit; 0 when nothing was observed.
func (d promDelta) histMean(name, label string) float64 {
	n := d.counter(name+"_count", label)
	if n == 0 {
		return 0
	}
	return d.counter(name+"_sum", label) / n
}

// merge folds several scrapes (one per node) into one by summing equal
// series, so fleet-wide counters read like a single server's.
func merge(ss ...scrape) scrape {
	out := scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
