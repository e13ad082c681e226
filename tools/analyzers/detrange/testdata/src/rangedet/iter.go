package rangedet

import (
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"sort"
)

// v3: each source of map or select order is flagged where it is called,
// whatever its value flows into.

// firstKey leaks map order through a helper's result: the range is flagged
// here, not where a caller stores the key.
func firstKey(m map[string]int) string {
	for k := range m { // want `range over map has an order-sensitive body`
		return k
	}
	return ""
}

func keysJSON(m map[string]int) ([]byte, error) {
	return json.Marshal(slices.Collect(maps.Keys(m))) // want `maps\.Keys yields map iteration order`
}

func valuesOut(m map[string]int) []int {
	return slices.Collect(maps.Values(m)) // want `maps\.Values yields map iteration order`
}

func allOut(m map[string]int) (out []string) {
	for k := range maps.All(m) { // want `maps\.All yields map iteration order`
		out = append(out, k)
	}
	return out
}

func reflectKeys(v reflect.Value) []reflect.Value {
	return v.MapKeys() // want `reflect\.Value\.MapKeys yields map iteration order`
}

func reflectRange(v reflect.Value) (n int) {
	it := v.MapRange() // want `reflect\.Value\.MapRange yields map iteration order`
	for it.Next() {
		n++
	}
	return n
}

func collectedValuesSorted(m map[string]int) []int {
	vs := slices.Collect(maps.Values(m)) // want `maps\.Values yields map iteration order`
	// Values are not keys: the collect-then-sort allowance is keys-only.
	slices.Sort(vs)
	return vs
}

func pick(a, b chan int) int {
	select { // want `select with 2 communication clauses picks among ready cases at random`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Order that dies at once is clean: slices.Sorted takes the iterator
// directly, or the next statement sorts the collected keys.

func sortedKeysIter(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

func sortedValuesIter(m map[string]int) []int {
	return slices.Sorted(maps.Values(m))
}

func collectedKeysSorted(m map[string]int) []string {
	keys := slices.Collect(maps.Keys(m))
	sort.Strings(keys)
	return keys
}

func reflectKeysSorted(v reflect.Value) []reflect.Value {
	keys := v.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// One communication clause and a default cannot race.
func poll(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}
