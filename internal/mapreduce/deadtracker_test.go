package mapreduce

import (
	"fmt"
	"slices"
	"testing"
)

// TestDeclareDeadRequeuesInTaskOrder pins the order in which a dead
// tracker's running tasks go back to the pending queue: by job, then
// kind, then index, whatever order they started in. The queue decides
// which task the next free slot launches. tr.running is a map, so a
// requeue that walked it would follow map order: the tasks are recorded
// in reverse and the death is replayed 32 times, so such a walk fails.
func TestDeclareDeadRequeuesInTaskOrder(t *testing.T) {
	c := newLocalityBed(t).c
	vm := c.trackers[0].VM
	label := func(ts []*task) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = fmt.Sprintf("%v%d", t.kind, t.index)
		}
		return out
	}
	for r := 0; r < 32; r++ {
		j := &job{cluster: c}
		for i := 0; i < 6; i++ {
			j.maps = append(j.maps, &task{job: j, kind: MapTask, index: i})
		}
		for i := 0; i < 2; i++ {
			j.reduces = append(j.reduces, &task{job: j, kind: ReduceTask, index: i})
		}
		want := append(slices.Clone(j.maps), j.reduces...)
		tr := &Tracker{VM: vm, running: make(map[*task]bool)}
		for i := len(want) - 1; i >= 0; i-- {
			want[i].state, want[i].tracker = TaskRunning, tr
			tr.running[want[i]] = true
		}
		c.jobs, c.pending = []*job{j}, nil
		c.declareDead(tr)
		if !slices.Equal(c.pending, want) {
			t.Fatalf("round %d: requeued %v, want %v", r, label(c.pending), label(want))
		}
	}
}
