package traceio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	ins := sampleInstance(t)
	sched, err := ins.CanonicalSchedule([][]bool{{true, false, true}, {true, true, false}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteScheduleJSON(&buf, ins, sched); err != nil {
		t.Fatal(err)
	}
	tasks, back, err := ReadScheduleJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0] != ins.Tasks[0] || tasks[1] != ins.Tasks[1] {
		t.Fatalf("tasks = %+v", tasks)
	}
	if err := ins.Validate(back); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	for j := range sched.Hyper {
		for i := range sched.Hyper[j] {
			if back.Hyper[j][i] != sched.Hyper[j][i] {
				t.Fatalf("hyper (%d,%d) mismatch", j, i)
			}
			if !back.Hctx[j][i].Equal(sched.Hctx[j][i]) {
				t.Fatalf("hctx (%d,%d) mismatch", j, i)
			}
		}
	}
	// Costs agree before and after the round trip.
	opt := model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
	a, err := ins.Cost(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ins.Cost(back, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cost changed: %d vs %d", a, b)
	}
}

func TestWriteScheduleJSONRejectsInvalid(t *testing.T) {
	ins := sampleInstance(t)
	if err := WriteScheduleJSON(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("accepted nils")
	}
	bad := &model.MTSchedule{}
	if err := WriteScheduleJSON(&bytes.Buffer{}, ins, bad); err == nil {
		t.Fatal("accepted invalid schedule")
	}
	if out, err := AppendScheduleJSON([]byte("keep"), ins, bad); err == nil || string(out) != "keep" {
		t.Fatalf("AppendScheduleJSON on an invalid schedule: %q, %v", out, err)
	}
}

func TestReadScheduleJSONErrors(t *testing.T) {
	cases := []string{
		``,
		`{bad`,
		`{"tasks":[]}`,
		`{"tasks":[{"name":"A","local":2,"v":1,"hyper":"1x","hctx":["11","11"]}]}`,
		`{"tasks":[{"name":"A","local":2,"v":1,"hyper":"10","hctx":["111","11"]}]}`,
		`{"tasks":[{"name":"A","local":2,"v":1,"hyper":"10","hctx":["11"]}]}`,
	}
	for _, c := range cases {
		if _, _, err := ReadScheduleJSON(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed schedule %q", c)
		}
	}
}
