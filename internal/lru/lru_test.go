package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // evicts b: a was used more recently
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%s) = %v, %v; want %d", k, v, ok, want)
		}
	}
	c.Put("a", 10) // overwrite keeps the size
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("after overwrite: a=%d len=%d", v, c.Len())
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New[int, string](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 40
				if v, ok := c.Get(k); ok && v != fmt.Sprint(k) {
					t.Errorf("Get(%d) = %q", k, v)
					return
				}
				c.Put(k, fmt.Sprint(k))
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("len %d exceeds capacity 16", n)
	}
}
