package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/model"
)

// jsonSchedule serializes a multi-task schedule together with the task
// shapes it applies to, so a reader can validate compatibility.
type jsonSchedule struct {
	Tasks []jsonScheduleTask `json:"tasks"`
}

type jsonScheduleTask struct {
	Name  string   `json:"name"`
	Local int      `json:"local"`
	V     int64    `json:"v"`
	Hyper string   `json:"hyper"` // '1' = hyperreconfiguration before the step
	Hctx  []string `json:"hctx"`  // per step, LSB-first bit string
}

// WriteScheduleJSON serializes a schedule solved for the given
// instance: AppendScheduleJSON's document indented by two spaces, plus
// a newline.
func WriteScheduleJSON(w io.Writer, ins *model.MTSwitchInstance, s *model.MTSchedule) error {
	compact, err := AppendScheduleJSON(nil, ins, s)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}

// AppendScheduleJSON validates a schedule solved for ins and appends
// its compact schedule document to dst: the bytes encoding/json writes
// for the jsonSchedule form, without indentation.  The bit strings are
// rendered straight from the sets' words.  On error dst is returned
// unchanged.
func AppendScheduleJSON(dst []byte, ins *model.MTSwitchInstance, s *model.MTSchedule) ([]byte, error) {
	if ins == nil || s == nil {
		return dst, fmt.Errorf("traceio: nil instance or schedule")
	}
	if err := ins.Validate(s); err != nil {
		return dst, fmt.Errorf("traceio: %w", err)
	}
	dst = append(dst, `{"tasks":`...)
	if len(ins.Tasks) == 0 {
		return append(dst, "null}"...), nil
	}
	for j, task := range ins.Tasks {
		if j == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, task.Name)
		dst = append(dst, `,"local":`...)
		dst = strconv.AppendInt(dst, int64(task.Local), 10)
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(task.V), 10)
		dst = append(dst, `,"hyper":"`...)
		for _, h := range s.Hyper[j] {
			if h {
				dst = append(dst, '1')
			} else {
				dst = append(dst, '0')
			}
		}
		dst = append(dst, `","hctx":[`...)
		for i, h := range s.Hctx[j] {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(h.AppendString(append(dst, '"')), '"')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...), nil
}

// ScheduleJSONLen is the exact length AppendScheduleJSON appends for
// any schedule valid for ins.  The document's shape depends only on
// the instance (every hyper mask has Steps characters, every
// hypercontext Local), so a caller can size one buffer for the whole
// rendering before it starts.
func ScheduleJSONLen(ins *model.MTSwitchInstance) int {
	n := len(`{"tasks":}`)
	if len(ins.Tasks) == 0 {
		return n + len("null")
	}
	steps := ins.Steps()
	n += len("[]") + len(ins.Tasks) - 1
	for _, task := range ins.Tasks {
		n += len(`{"name":,"local":,"v":,"hyper":"","hctx":[]}`) +
			len(appendJSONString(nil, task.Name)) +
			len(strconv.Itoa(task.Local)) + len(strconv.FormatInt(int64(task.V), 10)) +
			steps + steps*(task.Local+2)
		if steps > 1 {
			n += steps - 1
		}
	}
	return n
}

// appendJSONString appends s as encoding/json quotes it (HTML-escaped,
// invalid UTF-8 replaced), so names render as the struct encoder
// renders them.
func appendJSONString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q...)
}

// ReadScheduleJSON parses a schedule and the task shapes it was written
// for.  The caller is responsible for matching it against an instance
// (model.MTSwitchInstance.Validate does the semantic checking).
func ReadScheduleJSON(r io.Reader) ([]model.Task, *model.MTSchedule, error) {
	var in jsonSchedule
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("traceio: %w", err)
	}
	if len(in.Tasks) == 0 {
		return nil, nil, fmt.Errorf("traceio: schedule has no tasks")
	}
	n := len(in.Tasks[0].Hyper)
	tasks := make([]model.Task, len(in.Tasks))
	s := &model.MTSchedule{
		Hyper: make([][]bool, len(in.Tasks)),
		Hctx:  make([][]bitset.Set, len(in.Tasks)),
	}
	for j, jt := range in.Tasks {
		if len(jt.Hyper) != n || len(jt.Hctx) != n {
			return nil, nil, fmt.Errorf("traceio: task %q has %d/%d steps, want %d", jt.Name, len(jt.Hyper), len(jt.Hctx), n)
		}
		tasks[j] = model.Task{Name: jt.Name, Local: jt.Local, V: model.Cost(jt.V)}
		s.Hyper[j] = make([]bool, n)
		s.Hctx[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			switch jt.Hyper[i] {
			case '1':
				s.Hyper[j][i] = true
			case '0':
			default:
				return nil, nil, fmt.Errorf("traceio: task %q hyper mask has invalid character %q", jt.Name, jt.Hyper[i])
			}
			set, err := bitset.Parse(jt.Hctx[i])
			if err != nil {
				return nil, nil, fmt.Errorf("traceio: task %q hypercontext %d: %w", jt.Name, i, err)
			}
			if set.Universe() != jt.Local {
				return nil, nil, fmt.Errorf("traceio: task %q hypercontext %d over %d bits, want %d", jt.Name, i, set.Universe(), jt.Local)
			}
			s.Hctx[j][i] = set
		}
	}
	return tasks, s, nil
}
