package snapshot

import (
	"fmt"
	"reflect"
	"sort"

	"microscope/sim/cache"
)

// maxDiffs bounds the number of differences Diff reports; a corrupted
// 64 MB memory image would otherwise produce millions of lines.
const maxDiffs = 64

// Diff compares two machine snapshots field by field and returns one
// human-readable line per difference ("path: a != b"), capped at
// maxDiffs (a final "..." line marks truncation). Byte slices — the
// physical-memory image — are summarized as differing ranges rather
// than per-byte lines; sparse cache line lists are aligned by line index
// and name each differing line by set and way. An empty result means the
// snapshots are structurally identical.
func Diff(a, b *Machine) []string {
	d := &differ{}
	d.walk("", reflect.ValueOf(a), reflect.ValueOf(b))
	return d.out
}

type differ struct {
	out       []string
	truncated bool
}

func (d *differ) add(path, format string, args ...any) {
	if d.truncated {
		return
	}
	if len(d.out) >= maxDiffs {
		d.out = append(d.out, "... (more differences truncated)")
		d.truncated = true
		return
	}
	d.out = append(d.out, path+": "+fmt.Sprintf(format, args...))
}

func (d *differ) walk(path string, a, b reflect.Value) {
	if d.truncated {
		return
	}
	if a.Kind() != b.Kind() {
		d.add(path, "kind %s != %s", a.Kind(), b.Kind())
		return
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		switch {
		case a.IsNil() && b.IsNil():
		case a.IsNil() != b.IsNil():
			d.add(path, "nil-ness %t != %t", a.IsNil(), b.IsNil())
		default:
			d.walk(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported: snapshots are plain exported data
			}
			if t == cacheSnapType && f.Name == "Lines" {
				d.diffLines(join(path, f.Name), a.Interface().(cache.CacheSnap), b.Interface().(cache.CacheSnap))
				continue
			}
			d.walk(join(path, f.Name), a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.Type().Elem().Kind() == reflect.Uint8 {
			d.diffBytes(path, a.Bytes(), b.Bytes())
			return
		}
		if a.Len() != b.Len() {
			d.add(path, "length %d != %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		keys := map[string][2]reflect.Value{}
		for _, k := range a.MapKeys() {
			keys[fmt.Sprint(k.Interface())] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
		}
		for _, k := range b.MapKeys() {
			ks := fmt.Sprint(k.Interface())
			if _, ok := keys[ks]; !ok {
				keys[ks] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
			}
		}
		names := make([]string, 0, len(keys))
		for ks := range keys {
			names = append(names, ks)
		}
		sort.Strings(names)
		for _, ks := range names {
			va, vb := keys[ks][0], keys[ks][1]
			switch {
			case !va.IsValid():
				d.add(fmt.Sprintf("%s[%s]", path, ks), "only in second")
			case !vb.IsValid():
				d.add(fmt.Sprintf("%s[%s]", path, ks), "only in first")
			default:
				d.walk(fmt.Sprintf("%s[%s]", path, ks), va, vb)
			}
		}
	default:
		av, bv := a.Interface(), b.Interface()
		if !reflect.DeepEqual(av, bv) {
			d.add(path, "%v != %v", av, bv)
		}
	}
}

var cacheSnapType = reflect.TypeOf(cache.CacheSnap{})

// diffLines compares two sparse cache line lists by a merge walk on
// Index, so one line present in only one snapshot is one difference
// rather than a shift of every later entry. Lines are named by set and
// way; snapshots of different associativity fall back to the plain
// element-wise walk (the Ways difference is reported on its own).
func (d *differ) diffLines(path string, a, b cache.CacheSnap) {
	if a.Ways != b.Ways || a.Ways <= 0 {
		d.walk(path, reflect.ValueOf(a.Lines), reflect.ValueOf(b.Lines))
		return
	}
	name := func(l cache.LineSnap) string {
		return fmt.Sprintf("%s[set %d way %d]", path, l.Index/a.Ways, l.Index%a.Ways)
	}
	i, j := 0, 0
	for (i < len(a.Lines) || j < len(b.Lines)) && !d.truncated {
		switch {
		case j == len(b.Lines) || i < len(a.Lines) && a.Lines[i].Index < b.Lines[j].Index:
			l := a.Lines[i]
			d.add(name(l), "only in first (valid %t, tag %#x, lru %d)", l.Valid, l.Tag, l.LRU)
			i++
		case i == len(a.Lines) || b.Lines[j].Index < a.Lines[i].Index:
			l := b.Lines[j]
			d.add(name(l), "only in second (valid %t, tag %#x, lru %d)", l.Valid, l.Tag, l.LRU)
			j++
		default:
			d.walk(name(a.Lines[i]), reflect.ValueOf(a.Lines[i]), reflect.ValueOf(b.Lines[j]))
			i, j = i+1, j+1
		}
	}
}

// diffBytes summarizes differing regions of two byte slices as
// half-open ranges.
func (d *differ) diffBytes(path string, a, b []byte) {
	if len(a) != len(b) {
		d.add(path, "length %d != %d", len(a), len(b))
		return
	}
	i := 0
	for i < len(a) {
		if a[i] == b[i] {
			i++
			continue
		}
		start := i
		for i < len(a) && a[i] != b[i] {
			i++
		}
		d.add(fmt.Sprintf("%s[%#x:%#x]", path, start, i), "%d differing bytes", i-start)
		if d.truncated {
			return
		}
	}
}

func join(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}
