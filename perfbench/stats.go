package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB is the process's ru_maxrss (reported in KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// latencySummary is one phase's latency distribution in milliseconds.
type latencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	// Beyond99 is how many samples lie above p99: p99 is only printed,
	// never gated, and this says how much to trust it.
	Beyond99 int     `json:"samples_beyond_p99"`
	Max      float64 `json:"max_ms"`
}

func summarize(lat []float64) latencySummary {
	xs := append([]float64(nil), lat...)
	s := latencySummary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = quantile(xs, 0.5)
	s.P90 = quantile(xs, 0.9)
	s.P99 = quantile(xs, 0.99)
	s.Max = xs[len(xs)-1]
	for _, x := range xs {
		if x > s.P99 {
			s.Beyond99++
		}
	}
	return s
}

// windowSeconds is the length of the slices a measured window is cut
// into. Each gated latency is the lower quartile, over the calm slices
// (see calm), of the slice's quantile: a change that slows every
// request moves every slice, while the shared host's slow spells of
// 10-30 s (bursts of stolen CPU time, or spells in which sweeps take a
// third longer), which move a slice's p90 by half or more, must cover
// three quarters of the calm slices to move it.
const windowSeconds = 1.0

// stealLimit is the share of the machine's CPU time the hypervisor may
// give other guests during a calm slice. Steal of 10-17% lasting
// minutes, as seen on the host the benchmark was tuned on, raised p90
// by half at unchanged p50.
const stealLimit = 0.02

// slicesIn is the number of slices of a span-second window.
func slicesIn(span float64) int { return max(1, int(math.Round(span/windowSeconds))) }

// windowed returns the p50 and p90 of each slice of a span-second
// window, NaN for a slice without samples; at gives each latency's
// offset into the window.
func windowed(lat, at []float64, span float64) (p50, p90 []float64) {
	n := slicesIn(span)
	slices := make([][]float64, n)
	for i, a := range at {
		w := min(int(a/span*float64(n)), n-1)
		slices[w] = append(slices[w], lat[i])
	}
	p50, p90 = make([]float64, n), make([]float64, n)
	for i, xs := range slices {
		p50[i], p90[i] = quantile(xs, 0.5), quantile(xs, 0.9)
	}
	return p50, p90
}

// calm marks the slices the gated latencies are taken over: those in
// which the hypervisor took at most stealLimit of the cpus' time, or,
// when fewer than a quarter of the slices are, the quarter with the
// least steal. Every slice is calm when steal cannot be read.
func calm(steal []float64, cpus int) []bool {
	keep := make([]bool, len(steal))
	limit := stealLimit * windowSeconds * 1000 * float64(cpus)
	order := make([]int, 0, len(steal))
	for i, x := range steal {
		if math.IsNaN(x) {
			for i := range keep {
				keep[i] = true
			}
			return keep
		}
		keep[i] = x <= limit
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	for _, i := range order[:(len(order)+3)/4] {
		keep[i] = true
	}
	return keep
}

// acrossSlices is the gated statistic of per-slice quantiles: their
// lower quartile over the slices keep marks, slices without samples
// left out; NaN when none is left.
func acrossSlices(xs []float64, keep []bool) float64 {
	var kept []float64
	for i, x := range xs {
		if keep[i] && !math.IsNaN(x) {
			kept = append(kept, x)
		}
	}
	return quantile(kept, 0.25)
}

// hostStealMs is the CPU time, summed over the machine's CPUs, that the
// hypervisor has given to other guests since boot: the steal column of
// /proc/stat, in USER_HZ ticks of 10 ms. It is NaN where that is not
// readable.
func hostStealMs() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return math.NaN()
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return math.NaN()
	}
	return float64(ticks) * 10
}
