package service

import (
	"reflect"
	"testing"

	"gecco/internal/lru"
)

// sampleStats builds distinct, fully populated Stats values (plus sparse
// ones with nil Disk / nil Stages) so the algebraic checks exercise every
// merge path, including the pointer and map identities.
func sampleStats() []Stats {
	full := func(seed int64) Stats {
		var s Stats
		s.Cache = lru.Stats{Hits: seed, Misses: seed + 1, Evictions: seed + 2, Entries: int(seed % 7), Capacity: 64}
		s.Sessions = SessionStats{Stats: lru.Stats{Hits: seed * 3, Misses: seed, Evictions: 1, Entries: 2, Capacity: 8}, IndexBytes: seed * 1000, MappedBytes: seed * 10}
		s.Streams = StreamStats{Live: 1, Capacity: 16, Created: seed, Closed: seed / 2, Evicted: 0, Traces: seed * 5, Regroupings: seed / 3, Drifts: 1}
		s.Jobs = JobStats{Started: seed * 2, Completed: seed*2 - 1, Failed: 0, Cancelled: 1, Coalesced: seed / 4, Running: 1, Queued: int(seed % 3)}
		s.Pipeline = PipelineStats{
			Runs: seed, Entries: 3, Capacity: 32, Evictions: seed / 5,
			Stages: map[string]StageCounters{
				"abstract": {Hits: seed, Misses: seed / 2},
				"discover": {Hits: 1, Misses: seed},
			},
		}
		s.Disk = &DiskStats{
			Dir: "/data/a", IndexFiles: int(seed % 5), IndexBytes: seed * 4096, ResultFiles: 2,
			SpillWrites: seed, SpillErrors: 0, WarmOpens: seed / 2, WarmOpenErrors: 1,
			ResultsSaved: seed, ResultsLoaded: seed / 3,
		}
		return s
	}
	a := full(11)
	b := full(29)
	b.Disk.Dir = "/data/b"
	b.Pipeline.Stages["conform"] = StageCounters{Hits: 7, Misses: 2}
	// c has no disk tier and no pipeline activity: exercises the nil
	// identities against populated peers.
	c := full(5)
	c.Disk = nil
	c.Pipeline.Stages = nil
	return []Stats{a, b, c}
}

// TestMergeStatsCommutative: the fan-out aggregator must not care which
// shard answered first.
func TestMergeStatsCommutative(t *testing.T) {
	samples := sampleStats()
	for i, a := range samples {
		for j, b := range samples {
			ab, ba := MergeStats(a, b), MergeStats(b, a)
			if !reflect.DeepEqual(ab, ba) {
				t.Errorf("merge(s%d,s%d) != merge(s%d,s%d):\n%+v\nvs\n%+v", i, j, j, i, ab, ba)
			}
		}
	}
}

// TestMergeStatsAssociative: aggregating shard stats pairwise in any
// grouping yields the same cluster totals.
func TestMergeStatsAssociative(t *testing.T) {
	s := sampleStats()
	left := MergeStats(MergeStats(s[0], s[1]), s[2])
	right := MergeStats(s[0], MergeStats(s[1], s[2]))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n(ab)c = %+v\na(bc) = %+v", left, right)
	}
}

// TestMergeStatsZeroIdentity: merging with the zero Stats reproduces the
// input exactly — including nil Disk staying nil and nil Stages staying nil,
// so a shard with no disk tier does not grow a phantom one in the aggregate.
func TestMergeStatsZeroIdentity(t *testing.T) {
	var zero Stats
	for i, s := range sampleStats() {
		if got := MergeStats(s, zero); !reflect.DeepEqual(got, s) {
			t.Errorf("merge(s%d, zero) != s%d:\n%+v\nvs\n%+v", i, i, got, s)
		}
		if got := MergeStats(zero, s); !reflect.DeepEqual(got, s) {
			t.Errorf("merge(zero, s%d) != s%d:\n%+v\nvs\n%+v", i, i, got, s)
		}
	}
	if got := MergeStats(zero, zero); !reflect.DeepEqual(got, zero) {
		t.Errorf("merge(zero, zero) = %+v, want zero", got)
	}
}

// TestMergeStatsDirUnion pins the canonical Dir representation: sorted,
// deduplicated, comma-joined — shards sharing one warm tier collapse to a
// single entry.
func TestMergeStatsDirUnion(t *testing.T) {
	mk := func(dir string) Stats { return Stats{Disk: &DiskStats{Dir: dir}} }
	cases := []struct{ a, b, want string }{
		{"/data/b", "/data/a", "/data/a,/data/b"},
		{"/shared", "/shared", "/shared"},
		{"/data/b,/data/a", "/data/c", "/data/a,/data/b,/data/c"},
		{"", "/only", "/only"},
	}
	for _, tc := range cases {
		if got := MergeStats(mk(tc.a), mk(tc.b)).Disk.Dir; got != tc.want {
			t.Errorf("unionDirs(%q, %q) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestMergeStatsDoesNotAliasInputs: merged maps and Disk pointers must be
// fresh — mutating the aggregate must not corrupt a shard's own snapshot.
func TestMergeStatsDoesNotAliasInputs(t *testing.T) {
	s := sampleStats()
	out := MergeStats(s[0], s[2]) // s[2] has nil Disk: out.Disk copies s[0].Disk
	if out.Disk == s[0].Disk {
		t.Error("merged Disk aliases input pointer")
	}
	out.Pipeline.Stages["abstract"] = StageCounters{Hits: -1}
	if s[0].Pipeline.Stages["abstract"].Hits == -1 {
		t.Error("merged Stages map aliases input map")
	}
}
