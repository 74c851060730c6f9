package service

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeCanonical decodes a POST body into v, a *SolveRequest,
// *SessionRequest or *SessionSteps, in one pass over its bytes, when
// the body is in the canonical subset: the compact form json.Marshal
// writes, with any JSON whitespace and the members in any order.  For
// anything else it reports false and leaves v untouched, and the
// caller decodes the same bytes with decodeBody.  Outside the subset
// are a string with an escape or a control character, invalid UTF-8,
// a key not spelled exactly as a json tag, an unknown or repeated
// key, null, and a number the field's Go type cannot hold.
// json.Unmarshal accepts every body decodeCanonical accepts, with a
// reflect.DeepEqual value (FuzzSolveRequest, FuzzSessionBodies); v
// must be the zero value, as it is in readBody.
//
// The requirement cells are substrings of body: only toModel and
// parseBatch read them, and then they are dropped.  Every other string
// is cloned, because finished jobs, cache entries and sessions keep
// task names and the solver name, and a substring would keep the
// whole body alive with them (TestCanonicalStringsDoNotPinBody).
func decodeCanonical(body string, v any) bool {
	p := &bodyParser{s: body}
	switch v := v.(type) {
	case *SolveRequest:
		return parseInto(p, v, (*bodyParser).solveRequest)
	case *SessionRequest:
		return parseInto(p, v, (*bodyParser).sessionRequest)
	case *SessionSteps:
		return parseInto(p, v, (*bodyParser).sessionSteps)
	}
	return false
}

// parseInto parses the body into a fresh T and stores it in v only if
// the whole body was canonical.
func parseInto[T any](p *bodyParser, v *T, parse func(*bodyParser, *T)) bool {
	var r T
	parse(p, &r)
	if !p.end() {
		return false
	}
	*v = r
	return true
}

// bodyParser reads one body.  The first input outside the canonical
// subset sets bad and moves i to the end, so every later read fails
// and every loop ends.
type bodyParser struct {
	s   string
	i   int
	bad bool
}

func (p *bodyParser) fail() {
	p.bad = true
	p.i = len(p.s)
}

// end reports whether the body was canonical and nothing but
// whitespace follows its value.
func (p *bodyParser) end() bool {
	p.skipSpace()
	return !p.bad && p.i == len(p.s)
}

func (p *bodyParser) skipSpace() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace and reports whether it was
// there.
func (p *bodyParser) eat(c byte) bool {
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// maxObjectKeys is the most members a canonical object has: one per
// WireOptions field.  It only sizes the stack buffer of object.
const maxObjectKeys = 19

// object reads one object, calling member with p at each member's
// value.  member reads the value and reports whether key is one of
// the struct's json keys.  A repeated key is not canonical:
// encoding/json would merge the second value into the first.
func (p *bodyParser) object(member func(key string) bool) {
	if !p.eat('{') {
		p.fail()
		return
	}
	if p.eat('}') {
		return
	}
	var buf [maxObjectKeys]string
	seen := buf[:0]
	for {
		key := p.str()
		if slices.Contains(seen, key) || !p.eat(':') || !member(key) {
			p.fail()
			return
		}
		seen = append(seen, key)
		if !p.eat(',') {
			break
		}
	}
	if !p.eat('}') {
		p.fail()
	}
}

// array reads one array, calling elem with p at each element.
func (p *bodyParser) array(elem func()) {
	if !p.eat('[') {
		p.fail()
		return
	}
	if p.eat(']') {
		return
	}
	for {
		elem()
		if !p.eat(',') {
			break
		}
	}
	if !p.eat(']') {
		p.fail()
	}
}

// strStop marks the bytes that end a plain run inside a string: the
// closing quote, a backslash, a control character and every byte of a
// multi-byte UTF-8 sequence.
var strStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf
	}
	return t
}()

// str reads a string with no escape and no control character and
// returns it as a substring of the body.  Valid UTF-8 is taken as is,
// as encoding/json takes it; invalid UTF-8, which encoding/json would
// replace with U+FFFD, is not canonical.
func (p *bodyParser) str() string {
	if !p.eat('"') {
		p.fail()
		return ""
	}
	s, i := p.s, p.i
	for {
		for i < len(s) && !strStop[s[i]] {
			i++
		}
		if i == len(s) {
			p.fail()
			return ""
		}
		c := s[i]
		if c == '"' {
			break
		}
		if c < utf8.RuneSelf { // a backslash or a control character
			p.fail()
			return ""
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			p.fail()
			return ""
		}
		i += size
	}
	lit := s[p.i:i]
	p.i = i + 1
	return lit
}

// name reads a string the decoded value may keep past the request: a
// copy, not a substring of the body.
func (p *bodyParser) name() string {
	return strings.Clone(p.str())
}

// number reads a literal in JSON number grammar.  What follows it is
// checked by the caller's next expectation, a comma or a closing
// bracket, which rejects a literal such as 01 or 1x.
func (p *bodyParser) number() string {
	p.skipSpace()
	s, i := p.s, p.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i)
	default:
		p.fail()
		return ""
	}
	if i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		if j == i+1 {
			p.fail()
			return ""
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			p.fail()
			return ""
		}
		i = j
	}
	lit := s[p.i:i]
	p.i = i
	return lit
}

func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// int64 converts a number as encoding/json converts it for an int64
// field; a literal such as 1.0 or 1e2 is not canonical.
func (p *bodyParser) int64() int64 {
	n, err := strconv.ParseInt(p.number(), 10, 64)
	if err != nil {
		p.fail()
	}
	return n
}

// int is int64 plus encoding/json's overflow check for an int field.
func (p *bodyParser) int() int {
	n := p.int64()
	if int64(int(n)) != n {
		p.fail()
	}
	return int(n)
}

// float converts a number as encoding/json converts it for a float64
// field; a literal out of range, such as 1e400, is not canonical.
func (p *bodyParser) float() float64 {
	f, err := strconv.ParseFloat(p.number(), 64)
	if err != nil {
		p.fail()
	}
	return f
}

func (p *bodyParser) bool() bool {
	p.skipSpace()
	switch rest := p.s[p.i:]; {
	case strings.HasPrefix(rest, "true"):
		p.i += len("true")
		return true
	case strings.HasPrefix(rest, "false"):
		p.i += len("false")
		return false
	}
	p.fail()
	return false
}

func (p *bodyParser) solveRequest(r *SolveRequest) {
	p.object(func(key string) bool {
		switch key {
		case "solver":
			r.Solver = p.name()
		case "app":
			r.App = p.name()
		case "gran":
			r.Gran = p.name()
		case "instance":
			r.Instance = p.instance()
		case "kind":
			r.Kind = p.name()
		case "upload":
			r.Upload = p.name()
		case "w":
			r.W = p.int64()
		case "options":
			p.options(&r.Options)
		case "timeout_ms":
			r.TimeoutMS = p.int64()
		default:
			return false
		}
		return true
	})
}

func (p *bodyParser) sessionRequest(r *SessionRequest) {
	p.object(func(key string) bool {
		switch key {
		case "solver":
			r.Solver = p.name()
		case "instance":
			r.Instance = p.instance()
		case "upload":
			r.Upload = p.name()
		case "options":
			p.options(&r.Options)
		default:
			return false
		}
		return true
	})
}

func (p *bodyParser) sessionSteps(r *SessionSteps) {
	p.object(func(key string) bool {
		switch key {
		case "reqs":
			r.Reqs = p.rows()
		case "at":
			at := p.int()
			r.At = &at
		default:
			return false
		}
		return true
	})
}

func (p *bodyParser) instance() *WireInstance {
	wi := new(WireInstance)
	p.object(func(key string) bool {
		switch key {
		case "tasks":
			wi.Tasks = p.tasks()
		case "reqs":
			wi.Reqs = p.rows()
		default:
			return false
		}
		return true
	})
	return wi
}

// tasks reads the task array.  Like encoding/json it returns an empty
// array as an empty slice, not nil.
func (p *bodyParser) tasks() []WireTask {
	tasks := []WireTask{}
	p.array(func() {
		var t WireTask
		p.object(func(key string) bool {
			switch key {
			case "name":
				t.Name = p.name()
			case "local":
				t.Local = p.int()
			case "v":
				t.V = p.int64()
			default:
				return false
			}
			return true
		})
		tasks = append(tasks, t)
	})
	return tasks
}

// rows reads the step-major requirement rows.  Every cell of every row
// lands in one backing array, presized from the quotes left in the
// body (each cell takes two), and each row is a full slice expression
// over it; the row headers are presized from the brackets left.  Both
// counts are of bytes that arrived, capped at maxWireSteps entries,
// past which the slices grow by append: toModel refuses more steps.
func (p *bodyParser) rows() [][]string {
	rest := p.s[p.i:]
	cells := make([]string, 0, min(strings.Count(rest, `"`)/2, maxWireSteps))
	rows := make([][]string, 0, min(strings.Count(rest, "["), maxWireSteps))
	p.array(func() {
		start := len(cells)
		p.array(func() { cells = append(cells, p.str()) })
		rows = append(rows, cells[start:len(cells):len(cells)])
	})
	return rows
}

// options reads WireOptions.  The retired "workers" key is not one of
// them: bodies that carry it take the decodeBody path, which ignores
// it.
func (p *bodyParser) options(o *WireOptions) {
	p.object(func(key string) bool {
		switch key {
		case "max_states":
			o.MaxStates = p.int()
		case "max_candidates":
			o.MaxCandidates = p.int()
		case "seed":
			o.Seed = p.int64()
		case "pop":
			o.Pop = p.int()
		case "generations":
			o.Generations = p.int()
		case "mut_rate":
			o.MutRate = p.float()
		case "cross_rate":
			o.CrossRate = p.float()
		case "tournament_k":
			o.TournamentK = p.int()
		case "elites":
			o.Elites = p.int()
		case "no_heuristic_seeds":
			o.NoSeeds = p.bool()
		case "crossover":
			o.Crossover = p.name()
		case "iterations":
			o.Iterations = p.int()
		case "initial_temp":
			o.InitialTemp = p.float()
		case "cooling":
			o.Cooling = p.float()
		case "interval_k":
			o.IntervalK = p.int()
		case "max_frontier_bytes":
			o.MaxFrontierBytes = p.int64()
		case "disable_pruning":
			o.DisablePruning = p.bool()
		case "partitions":
			o.Partitions = p.int()
		case "max_cut_columns":
			o.MaxCutColumns = p.int()
		default:
			return false
		}
		return true
	})
}
