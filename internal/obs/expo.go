package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-exposition helpers shared by every /metrics writer in
// the repo (the admission server's and the cluster coordinator's), so a
// label value or a histogram renders the same way everywhere.

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// QuoteLabel renders v as a quoted label value: backslash, double quote
// and newline escaped per the exposition format, every other byte as is.
// (Go's %q is not this: it escapes tabs and other non-printables, which
// a Prometheus parser then reads back literally.)
func QuoteLabel(v string) string {
	return `"` + labelEscaper.Replace(v) + `"`
}

// FormatFloat renders a float the shortest way that parses back exactly
// — the representation used for histogram bounds and sums, where a
// lossy rendering would break bucket identity across scrapes.
func FormatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteHistogram renders s as the _bucket, _sum and _count lines of the
// histogram family name. labels is the series' pre-rendered label set
// (`stage="decide"`), or "" for a series without labels. Buckets are
// the power-of-two bounds rendered cumulatively, with the mandatory +Inf
// bucket equal to _count.
func WriteHistogram(w io.Writer, name, labels string, s HistogramSnapshot) {
	prefix, set := "", ""
	if labels != "" {
		prefix, set = labels+",", "{"+labels+"}"
	}
	var cum uint64
	for i := 0; i < HistogramBuckets; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%s} %d\n", name, prefix, QuoteLabel(FormatFloat(BucketBound(i))), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, set, FormatFloat(s.SumSecs))
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, s.Count)
}
