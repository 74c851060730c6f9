package service

import "testing"

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	a := &WireSolution{Cost: 1}
	b := &WireSolution{Cost: 2}
	d := &WireSolution{Cost: 3}
	c.Put("a", a)
	c.Put("b", b)
	if got, ok := c.Get("a"); !ok || got != a {
		t.Fatal("a not cached")
	}
	// a was just used, so inserting d must evict b.
	c.Put("d", d)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d should be cached")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestResultCacheRefresh(t *testing.T) {
	c := newResultCache(4)
	a := &WireSolution{Cost: 1}
	a2 := &WireSolution{Cost: 9}
	c.Put("a", a)
	c.Put("a", a2)
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache: Len = %d", c.Len())
	}
	if got, _ := c.Get("a"); got != a2 {
		t.Fatal("Put did not refresh the entry")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.Put("a", &WireSolution{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache has nonzero length")
	}
}
