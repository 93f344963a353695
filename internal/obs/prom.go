package obs

import (
	"fmt"
	"io"
)

// WriteHeader writes the HELP and TYPE lines that open a metric family
// in Prometheus text exposition format.
func WriteHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteScalar writes a family of one unlabelled integer series.
func WriteScalar(w io.Writer, name, typ, help string, v int64) {
	WriteHeader(w, name, typ, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Histogram is a cumulative Prometheus histogram. It is not safe for
// concurrent use; callers guard it with their own lock.
type Histogram struct {
	bounds []float64 // bucket upper bounds, ascending
	counts []int64   // counts[i]: observations <= bounds[i]
	count  int64
	// Sum is the total of all observations.
	Sum float64
}

// NewHistogram returns an empty histogram over the given bucket upper
// bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, le := range h.bounds {
		if v <= le {
			h.counts[i]++
		}
	}
	h.count++
	h.Sum += v
}

// Write writes the histogram's bucket, sum and count series under name.
// label, when non-empty (`pass="closure"`), leads every series' labels.
func (h *Histogram) Write(w io.Writer, name, label string) {
	sep, labels := "", ""
	if label != "" {
		sep, labels = ",", "{"+label+"}"
	}
	for i, le := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, label, sep, le, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, h.count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count)
}
