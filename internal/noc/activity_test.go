package noc

import "testing"

func TestRouterSet(t *testing.T) {
	s := newRouterSet(130)
	if got := s.appendMembers(nil); len(got) != 0 {
		t.Fatalf("empty set yields %v", got)
	}
	for _, i := range []int{129, 0, 63, 64, 7, 63} { // 63 twice: add is idempotent
		s.add(i)
	}
	if s.n != 5 {
		t.Fatalf("population %d, want 5", s.n)
	}
	want := []int32{0, 7, 63, 64, 129}
	got := s.appendMembers(nil)
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v not ascending as %v", got, want)
		}
	}
	for _, i := range []int{63, 63} { // remove is idempotent
		s.remove(i)
	}
	if s.n != 4 || s.has(63) || !s.has(64) {
		t.Fatalf("after remove: n=%d has(63)=%v has(64)=%v", s.n, s.has(63), s.has(64))
	}
}
