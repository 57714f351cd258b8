package serve

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sops/internal/runner"
)

// followUntil follows a job's stream from the start and returns the first
// frame stop accepts. It blocks on the stream itself — no polling, no
// sleeps — and fails the test if the stream closes first.
func followUntil(t *testing.T, m *Manager, id string, stop func(Frame) bool) Frame {
	t.Helper()
	st, ok := m.Stream(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	var got *Frame
	errFound := errors.New("found")
	err := st.follow(context.Background(), func(line []byte) error {
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return err
		}
		if stop(f) {
			got = &f
			return errFound
		}
		return nil
	})
	if got == nil {
		t.Fatalf("job %s: stream ended without the awaited frame (%v)", id, err)
	}
	return *got
}

// TestQuotaFreeOnceCanceledSeen: a client whose job it has seen end as
// canceled — through the done frame of a running job, or through the record
// Cancel returns for a pending one — is never refused for quota on its next
// submission. The hog runs until it is canceled (its budget is far beyond
// any test), so every step is ordered by stream frames and Cancel's return,
// not by wall-clock time.
func TestQuotaFreeOnceCanceledSeen(t *testing.T) {
	m := openNode(t, Options{Dir: t.TempDir(), ClientQuota: 1, Jobs: 1})
	hog := func(seed uint64) JobRequest {
		return JobRequest{Run: &runner.Options{
			N: 30, Lambda: 4, Seed: seed, Iterations: 1 << 50, SnapshotEvery: 1 << 14,
		}}
	}
	for round := uint64(1); round <= 5; round++ {
		// Running job: cancel after its first snapshot, wait for the done
		// frame, then resubmit at once.
		job, err := m.SubmitAs(hog(round), "alice")
		if err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		followUntil(t, m, job.ID, func(f Frame) bool { return f.Type == FrameSnapshot })
		if _, err := m.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		done := followUntil(t, m, job.ID, func(f Frame) bool { return f.Type == FrameDone })
		if done.State != StateCanceled {
			t.Fatalf("round %d: done frame state %q, want canceled", round, done.State)
		}
		next, err := m.SubmitAs(hog(100+round), "alice")
		if err != nil {
			t.Fatalf("round %d: alice refused right after seeing canceled: %v", round, err)
		}

		// Pending job: alice is at quota with next running; bob's job
		// queues behind it. Bob cancels his pending job and, once Cancel
		// has returned the canceled record, submits again.
		followUntil(t, m, next.ID, func(f Frame) bool { return f.Type == FrameSnapshot })
		queued, err := m.SubmitAs(hog(200+round), "bob")
		if err != nil {
			t.Fatalf("round %d: bob: %v", round, err)
		}
		rec, err := m.Cancel(queued.ID)
		if err != nil || rec.State != StateCanceled {
			t.Fatalf("round %d: cancel pending: state %q, err %v", round, rec.State, err)
		}
		again, err := m.SubmitAs(hog(300+round), "bob")
		if err != nil {
			t.Fatalf("round %d: bob refused right after canceling his pending job: %v", round, err)
		}
		for _, id := range []string{next.ID, again.ID} {
			if _, err := m.Cancel(id); err != nil {
				t.Fatal(err)
			}
			followUntil(t, m, id, func(f Frame) bool { return f.Type == FrameDone })
		}
	}
}
