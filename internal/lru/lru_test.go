package lru

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(c *Cache[string, int]) []string {
	var out []string
	c.Each(func(k string, _ int) { out = append(out, k) })
	return out
}

// TestPutGetEviction drives Put/Get sequences and checks the surviving keys
// in recency order, every value, and the counters.
func TestPutGetEviction(t *testing.T) {
	many := func(n int) []string {
		ks := make([]string, n)
		for i := range ks {
			ks[i] = fmt.Sprintf("key-%d", i)
		}
		return ks
	}
	cases := []struct {
		name      string
		capacity  int
		puts      []string
		gets      []string // touched after all puts
		wantLive  int
		wantEvict int64
	}{
		{"under capacity", 4, []string{"a", "b"}, nil, 2, 0},
		{"refresh is not an insert", 2, []string{"a", "a", "b", "a"}, nil, 2, 0},
		{"beyond capacity", 2, []string{"a", "b", "c", "d"}, nil, 2, 2},
		{"disabled", 0, []string{"a", "b"}, nil, 0, 0},
		// Store 500 keys into room for 1024: every one must read back.
		{"store 500 read 500", 1024, many(500), many(500), 500, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.capacity, nil)
			for i, k := range tc.puts {
				c.Put(k, i)
			}
			for _, k := range tc.gets {
				v, ok := c.Get(k)
				if !ok {
					t.Fatalf("%s missing", k)
				}
				if want := tc.puts[v]; want != k {
					t.Fatalf("%s holds the value of %s", k, want)
				}
			}
			st := c.Stats()
			if st.Entries != tc.wantLive || c.Len() != tc.wantLive {
				t.Fatalf("entries = %d (Len %d), want %d", st.Entries, c.Len(), tc.wantLive)
			}
			if st.Evictions != tc.wantEvict {
				t.Fatalf("evictions = %d, want %d", st.Evictions, tc.wantEvict)
			}
			if st.Hits != int64(len(tc.gets)) || st.Misses != 0 {
				t.Fatalf("hits/misses = %d/%d, want %d/0", st.Hits, st.Misses, len(tc.gets))
			}
			if st.Capacity != tc.capacity {
				t.Fatalf("capacity = %d, want %d", st.Capacity, tc.capacity)
			}
		})
	}
}

// TestRecencyAndHook checks that Get bumps recency and Peek does not, that
// capacity pressure and Evict call the hook and count, and that Remove and
// Clear do neither.
func TestRecencyAndHook(t *testing.T) {
	var evicted []string
	c := New(3, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a")  // a becomes most recent
	c.Peek("b") // b stays least recent
	c.Put("d", 4)
	if got, want := keys(c), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived")
	}
	if !c.Evict("c") || c.Evict("c") {
		t.Fatal("Evict must report presence")
	}
	if v, ok := c.Remove("a"); !ok || v != 1 {
		t.Fatalf("Remove(a) = %d, %t", v, ok)
	}
	c.Clear()
	if !reflect.DeepEqual(evicted, []string{"b", "c"}) {
		t.Fatalf("hook saw %v, want [b c]", evicted)
	}
	st := c.Stats()
	want := Stats{Hits: 1, Misses: 1, Evictions: 2, Entries: 0, Capacity: 3}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}
