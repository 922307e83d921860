package seri

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Copy, CopyValue and Marshal encode into pooled scratch: nothing they
// return may share bytes with it. Each first result is checked after
// later calls have reused the scratch with other bytes.
func TestScratchIsNotInTheResult(t *testing.T) {
	r := reg()
	doc := func(fill byte) Doc {
		return Doc{
			Title: strings.Repeat(string(rune('a'+fill%26)), 40),
			Body:  bytes.Repeat([]byte{fill}, 1000),
			Tags:  []string{strings.Repeat("t", int(fill%7)+1)},
			Meta:  map[string]int64{"k": int64(fill)},
			At:    &Point{X: int64(fill)},
		}
	}
	first, want := doc(1), doc(1)

	copied, err := Copy(r, first)
	if err != nil {
		t.Fatal(err)
	}
	sized, n, err := CopyValue(r, first)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Marshal(r, first)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stream) {
		t.Errorf("CopyValue reports %d stream bytes, Marshal wrote %d", n, len(stream))
	}
	streamWant := bytes.Clone(stream)

	for fill := byte(2); fill < 10; fill++ {
		if _, err := Copy(r, doc(fill)); err != nil {
			t.Fatal(err)
		}
		if _, err := Marshal(r, doc(fill)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(copied, want) {
		t.Error("a Copy result changed when the scratch was reused")
	}
	if !reflect.DeepEqual(sized.Interface(), want) {
		t.Error("a CopyValue result changed when the scratch was reused")
	}
	if !bytes.Equal(stream, streamWant) {
		t.Error("a Marshal result changed when the scratch was reused")
	}
	if cap(stream) != len(stream) {
		t.Errorf("Marshal returned %d bytes in a buffer of %d", len(stream), cap(stream))
	}
}

// An encoder that tracked more heap cells than maxSeenCells gets a fresh
// alias map: clearing the old one would cost every later encode its
// capacity. A smaller map is cleared and kept.
func TestEncoderDropsLargeAliasMap(t *testing.T) {
	encodeCells := func(n int) (kept bool) {
		e := getEncoder(nil, reg(), nil, nil)
		before := reflect.ValueOf(e.seen).Pointer()
		pts := make([]*Point, n)
		for i := range pts {
			pts[i] = &Point{X: int64(i)}
		}
		if _, err := e.finish(e.dynamic(reflect.ValueOf(pts))); err != nil {
			t.Fatal(err)
		}
		if len(e.seen) != 0 || e.next != 0 {
			t.Fatalf("after %d cells: %d entries left, next id %d", n, len(e.seen), e.next)
		}
		return reflect.ValueOf(e.seen).Pointer() == before
	}
	if !encodeCells(maxSeenCells / 2) {
		t.Error("a map under the bound was replaced")
	}
	if encodeCells(maxSeenCells + 1) {
		t.Error("a map over the bound was kept")
	}
}
