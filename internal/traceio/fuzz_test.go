package traceio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bitset"
	"repro/internal/model"
)

// FuzzReadRequirementsCSV checks the CSV reader never panics and that
// every accepted instance survives a write/read round trip.
func FuzzReadRequirementsCSV(f *testing.F) {
	f.Add("A:2:2,B:1:1\n10,1\n01,0\n")
	f.Add("A:1:1\n1\n")
	f.Add("")
	f.Add("A:x:1\n")
	f.Add("A:1:1,B:2:3\n0,00\n1,11\n1,01\n")
	f.Fuzz(func(t *testing.T, s string) {
		ins, err := ReadRequirementsCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequirementsCSV(&buf, ins); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadRequirementsCSV(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.NumTasks() != ins.NumTasks() || back.Steps() != ins.Steps() {
			t.Fatalf("round trip changed shape")
		}
		for j := range ins.Tasks {
			if back.Tasks[j] != ins.Tasks[j] {
				t.Fatalf("round trip changed task %d", j)
			}
			for i := 0; i < ins.Steps(); i++ {
				if !back.Reqs[j][i].Equal(ins.Reqs[j][i]) {
					t.Fatalf("round trip changed requirement (%d,%d)", j, i)
				}
			}
		}
	})
}

// FuzzReadTraceJSON checks the JSON trace reader never panics and that
// accepted traces survive a write/read round trip.
func FuzzReadTraceJSON(f *testing.F) {
	f.Add(`{"program":"x","init_regs":"0000000000","steps":[]}`)
	f.Add(`{bad`)
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadTraceJSON(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTraceJSON(&buf, tr); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadTraceJSON(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.Program != tr.Program || back.Len() != tr.Len() || back.InitRegs != tr.InitRegs {
			t.Fatalf("round trip changed trace identity")
		}
	})
}

// referenceScheduleJSON is the struct encoder WriteScheduleJSON must
// match byte for byte: the document built as Go values with per-bit
// strings, encoded with two-space indentation.
func referenceScheduleJSON(ins *model.MTSwitchInstance, s *model.MTSchedule) ([]byte, error) {
	if err := ins.Validate(s); err != nil {
		return nil, err
	}
	bits := func(set bitset.Set) string {
		b := make([]byte, set.Universe())
		for i := range b {
			b[i] = '0'
			if set.Contains(i) {
				b[i] = '1'
			}
		}
		return string(b)
	}
	out := jsonSchedule{}
	for j, task := range ins.Tasks {
		hyper := make([]byte, ins.Steps())
		hctx := make([]string, ins.Steps())
		for i := range hyper {
			hyper[i] = '0'
			if s.Hyper[j][i] {
				hyper[i] = '1'
			}
			hctx[i] = bits(s.Hctx[j][i])
		}
		out.Tasks = append(out.Tasks, jsonScheduleTask{Name: task.Name, Local: task.Local, V: int64(task.V), Hyper: string(hyper), Hctx: hctx})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(out)
	return buf.Bytes(), err
}

// FuzzScheduleJSON draws an instance and a valid schedule for it
// (task names from the fuzzer, universes of 0 to 139 bits, 0 to 19
// steps, hypercontexts with extra bits beyond the requirement union)
// and checks WriteScheduleJSON against the struct encoder, the
// compact AppendScheduleJSON document and its ScheduleJSONLen size,
// and a ReadScheduleJSON round trip.
func FuzzScheduleJSON(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(5), "A")
	f.Add(int64(2), uint8(1), uint8(1), uint8(64), `a<b>&"c\d`)
	f.Add(int64(3), uint8(3), uint8(0), uint8(65), "line\u2028sep\u2029")
	f.Add(int64(4), uint8(4), uint8(19), uint8(130), "tab\tnl\n\x01\xff")
	f.Add(int64(5), uint8(2), uint8(7), uint8(0), "")
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw, lRaw uint8, name string) {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+int(mRaw%4), int(nRaw%20)
		tasks := make([]model.Task, m)
		reqs := make([][]bitset.Set, m)
		mask := make([][]bool, m)
		for j := range tasks {
			l := (int(lRaw) + 37*j) % 140
			tasks[j] = model.Task{Name: name + strconv.Itoa(j), Local: l, V: model.Cost(1 + r.Intn(1000))}
			reqs[j] = make([]bitset.Set, n)
			mask[j] = make([]bool, n)
			for i := range reqs[j] {
				reqs[j][i] = bitset.New(l)
				for b := 0; b < l; b++ {
					if r.Intn(4) == 0 {
						reqs[j][i].Add(b)
					}
				}
				mask[j][i] = r.Intn(3) == 0
			}
		}
		ins, err := model.NewMTSwitchInstance(tasks, reqs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ins.CanonicalSchedule(mask)
		if err != nil {
			t.Fatal(err)
		}
		// Segments share one set, so widening it keeps the schedule valid.
		for j, row := range s.Hctx {
			for i, h := range row {
				if s.Hyper[j][i] && h.Universe() > 0 && r.Intn(2) == 0 {
					h.Add(r.Intn(h.Universe()))
				}
			}
		}
		want, err := referenceScheduleJSON(ins, s)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := AppendScheduleJSON([]byte("pre"), ins, s)
		if err != nil {
			t.Fatal(err)
		}
		var wantCompact bytes.Buffer
		if err := json.Compact(&wantCompact, want); err != nil {
			t.Fatal(err)
		}
		if string(compact[:3]) != "pre" || !bytes.Equal(compact[3:], bytes.TrimSuffix(wantCompact.Bytes(), []byte("\n"))) {
			t.Fatalf("AppendScheduleJSON differs from the compacted struct encoding\n got %s\nwant %s", compact, wantCompact.Bytes())
		}
		if len(compact)-3 != ScheduleJSONLen(ins) {
			t.Fatalf("ScheduleJSONLen = %d, document has %d bytes", ScheduleJSONLen(ins), len(compact)-3)
		}
		var got bytes.Buffer
		if err := WriteScheduleJSON(&got, ins, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteScheduleJSON differs from the struct encoder\n got %s\nwant %s", got.Bytes(), want)
		}
		backTasks, back, err := ReadScheduleJSON(&got)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		for j := range tasks {
			bt := backTasks[j]
			if bt.Local != tasks[j].Local || bt.V != tasks[j].V || (utf8.ValidString(name) && bt.Name != tasks[j].Name) {
				t.Fatalf("round trip changed task %d: %+v vs %+v", j, bt, tasks[j])
			}
			for i := 0; i < n; i++ {
				if back.Hyper[j][i] != s.Hyper[j][i] || !back.Hctx[j][i].Equal(s.Hctx[j][i]) {
					t.Fatalf("round trip changed task %d step %d", j, i)
				}
			}
		}
	})
}
