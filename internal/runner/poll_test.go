package runner

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestRunWithSnapshotsChunks: the run is cut into calls of at most 2^20
// iterations (rounded to the engine's unit) whatever the snapshot cadence,
// Interrupt is polled before every call, and snapshots land exactly at the
// multiples of SnapshotEvery and at the end.
func TestRunWithSnapshotsChunks(t *testing.T) {
	const M = interruptEvery
	cases := []struct {
		total, every, unit uint64
		calls              []uint64
		snaps              []uint64
	}{
		{0, 0, 1, []uint64{0}, nil},
		{M / 2, 0, 1, []uint64{M / 2}, nil},
		{2*M + 5, 0, 1, []uint64{M, M, 5}, nil},
		{2*M + 5, 3 * M, 1, []uint64{M, M, 5}, nil},
		{3*M + 7, 2*M - 1, 1, []uint64{M, M - 1, M, 8}, []uint64{2*M - 1, 3*M + 7}},
		{M + 10, 4, 1, nil, nil}, // filled in below: a snapshot every 4
		{2*M + 5, 0, 3, []uint64{M - M%3, M - M%3, 2*M + 5 - 2*(M-M%3)}, nil},
		{2*M + 5, 0, 0, []uint64{2*M + 5}, nil},
		{2*M + 5, M / 2, 0, []uint64{M / 2, M / 2, M / 2, M / 2, 5}, []uint64{M / 2, M, 3 * M / 2, 2 * M, 2*M + 5}},
		{5, 0, 2 * M, []uint64{5}, nil},
	}
	for i := uint64(0); i < (M+10)/4; i++ {
		cases[5].calls = append(cases[5].calls, 4)
		cases[5].snaps = append(cases[5].snaps, 4*(i+1))
	}
	cases[5].calls = append(cases[5].calls, 2)
	cases[5].snaps = append(cases[5].snaps, M+10)

	for _, tc := range cases {
		name := fmt.Sprintf("total=%d/every=%d/unit=%d", tc.total, tc.every, tc.unit)
		var calls, snaps []uint64
		polls := 0
		opts := Options{SnapshotEvery: tc.every, Interrupt: func() bool { polls++; return false }}
		var res Result
		err := runWithSnapshots(tc.total, tc.unit, opts, func(k uint64) { calls = append(calls, k) },
			func(done uint64) Snapshot { snaps = append(snaps, done); return Snapshot{Iteration: done} }, &res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(calls, tc.calls) {
			t.Errorf("%s: run calls %v, want %v", name, calls, tc.calls)
		}
		if !reflect.DeepEqual(snaps, tc.snaps) {
			t.Errorf("%s: snapshots at %v, want %v", name, snaps, tc.snaps)
		}
		if polls != len(calls) {
			t.Errorf("%s: %d polls for %d run calls", name, polls, len(calls))
		}
		if len(res.Snapshots) != len(snaps) {
			t.Errorf("%s: %d snapshots recorded, %d taken", name, len(res.Snapshots), len(snaps))
		}
	}

	// A poll that turns true mid-run stops before the next call.
	var done uint64
	polls := 0
	err := runWithSnapshots(5*M, 1, Options{Interrupt: func() bool { polls++; return polls > 2 }},
		func(k uint64) { done += k }, func(uint64) Snapshot { return Snapshot{} }, &Result{})
	if !errors.Is(err, ErrInterrupted) || done != 2*M {
		t.Fatalf("interrupt after two stretches: err %v, ran %d, want ErrInterrupted after %d", err, done, 2*M)
	}
}
