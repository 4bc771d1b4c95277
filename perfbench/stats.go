package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/kws"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the "type 7" estimator). A failed operation is recorded as
// +Inf, so it lands above every latency limit; a quantile that reaches a
// failure is +Inf too.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// wquantile is quantile with a weight per value: each value sits at the
// midpoint of its share of the cumulative weight, and the q-quantile
// interpolates linearly between the two values around q.
func wquantile(xs, ws []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	cum, prevPos, prev := 0.0, 0.0, math.NaN()
	for n, i := range idx {
		pos := (cum + ws[i]/2) / total
		cum += ws[i]
		if pos >= q {
			if n == 0 || math.IsInf(xs[i], 1) {
				return xs[i]
			}
			return prev + (xs[i]-prev)*(q-prevPos)/(pos-prevPos)
		}
		prevPos, prev = pos, xs[i]
	}
	return prev
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// liveHeapMB forces a full collection and returns the live heap in MB
// (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// digest fingerprints a query's rendered results in order: every field a
// caller sees, with MatchedKeywords in sorted key order (encoding/json sorts
// map keys), so equal digests mean byte-identical output.
func digest(results []kws.Result) string {
	b, err := json.Marshal(results)
	if err != nil {
		// kws.Result holds only strings, numbers, bools, slices and maps of
		// those; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestAll fingerprints a sequence of digests, for the verification list.
func digestAll(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
