// Package determ is the determinism analyzer's test fixture. Each "want" comment is a
// regexp the harness matches against the diagnostic reported on that
// line; lines without one must stay clean.
package determ

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

func globalRand() int {
	n := rand.Intn(10) // want `global math/rand source`
	rand.Seed(42)      // want `global math/rand source`
	f := rand.Float64  // want `global math/rand source`
	return n + int(f())
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // ok: explicit source
	return r.Intn(10)                   // ok: method on the explicit source
}

func wallClock() int64 {
	t := time.Now() // want `time\.Now reads the wall clock`
	return t.Unix() + int64(time.Hour)
}

func mapAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map iteration order reaches output`
	}
	return keys
}

func mapAppendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // ok: sorted below
	}
	sort.Strings(keys)
	return keys
}

func mapAppendSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // ok: sort.Slice below names keys
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// The collect-into-map-of-slices idiom: the sort lives in a sibling
// loop, which still counts as sorting the accumulator.
func mapOfSlices(labels map[string]int) map[int][]string {
	byIndex := make(map[int][]string)
	for name, idx := range labels {
		byIndex[idx] = append(byIndex[idx], name) // ok: sorted in the next loop
	}
	for idx := range byIndex {
		sort.Strings(byIndex[idx])
	}
	return byIndex
}

func mapPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map iteration order reaches output`
	}
}

func mapWrite(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map iteration order reaches output`
	}
	return b.String()
}

func mapLocalOnly(m map[string]int) int {
	best := 0
	for _, v := range m {
		parts := []int{}
		parts = append(parts, v) // ok: parts is per-iteration
		if v > best {
			best = v // ok: order-independent reduction
		}
	}
	return best
}

func sliceAppend(xs []int) []int {
	var out []int
	for _, v := range xs {
		out = append(out, v) // ok: slice iteration is ordered
	}
	return out
}
