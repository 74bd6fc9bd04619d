package cluster

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// The coordinator merges sub-responses by splicing the workers' own
// bytes: every worker encodes its sub-response with the same
// json.Encoder a single node uses, so the merged body is the workers'
// elements in batch order with only the row numbers rewritten. One
// strict, schema-directed pass over each body finds the element
// boundaries and type-checks every element as it is copied out; nothing
// is decoded into Go values and nothing is re-encoded.
//
// The grammar is exactly what the worker's encoder writes for the
// /v1/repair and /v1/validate response shapes: fields in declared
// order, omitempty fields absent rather than empty, no insignificant
// whitespace, a trailing newline. Strings must be valid JSON strings of
// valid UTF-8 with no raw control bytes; a number must be one the typed
// decode accepts (an int field takes an integer literal that fits an
// int, a float field a literal that does not overflow float64). Anything
// else fails the request with a 502.

// scanner is a cursor over one worker body. Its first error sticks and
// turns every later call into a no-op, so the element grammars below
// read as straight-line code and callers check err once per element.
type scanner struct {
	b   []byte
	pos int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
	}
}

// next reports whether the literal l comes next, consuming it if so.
func (s *scanner) next(l string) bool {
	if s.err != nil || len(s.b)-s.pos < len(l) || string(s.b[s.pos:s.pos+len(l)]) != l {
		return false
	}
	s.pos += len(l)
	return true
}

// lit consumes the literal l.
func (s *scanner) lit(l string) {
	if s.err == nil && !s.next(l) {
		s.fail("want %q", l)
	}
}

// plain marks the bytes a JSON string holds unescaped without a second
// look: printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes one string and reports whether it is empty.
func (s *scanner) str() (empty bool) {
	if s.err != nil {
		return false
	}
	b, i := s.b, s.pos+1
	if s.pos >= len(b) || b[s.pos] != '"' {
		s.fail("want a string")
		return false
	}
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			empty = i == s.pos+1
			s.pos = i + 1
			return empty
		case c == '\\':
			if i+1 >= len(b) {
				s.pos = i
				s.fail("unterminated escape")
				return false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) || !hex4(b[i+2:i+6]) {
					s.pos = i
					s.fail("bad \\u escape")
					return false
				}
				i += 6
			default:
				s.pos = i
				s.fail("bad escape \\%c", b[i+1])
				return false
			}
		case c < 0x20:
			s.pos = i
			s.fail("control byte 0x%02x in a string", c)
			return false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				s.pos = i
				s.fail("invalid UTF-8 in a string")
				return false
			}
			i += size
		}
	}
	s.fail("unterminated string")
	return false
}

func hex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number consumes one JSON number and returns its literal, whether it
// is an integer literal (no fraction, no exponent), whether it has an
// exponent, and whether its digits are all zero.
func (s *scanner) number() (lit []byte, integral, exp, zero bool) {
	if s.err != nil {
		return nil, false, false, false
	}
	b, i := s.b, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	j, nz := digits(b, i)
	if j == i || j-i > 1 && b[i] == '0' {
		s.fail("want a number")
		return nil, false, false, false
	}
	i, integral, zero = j, true, !nz
	if i < len(b) && b[i] == '.' {
		j, nz = digits(b, i+1)
		if j == i+1 {
			s.fail("want a fraction digit")
			return nil, false, false, false
		}
		i, integral, zero = j, false, zero && !nz
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j, _ = digits(b, i); j == i {
			s.fail("want an exponent digit")
			return nil, false, false, false
		}
		i, integral, exp = j, false, true
	}
	lit = b[s.pos:i]
	s.pos = i
	return lit, integral, exp, zero
}

// digits skips the decimal digits at b[i:], returning the index after
// them and whether any was not '0'.
func digits(b []byte, i int) (int, bool) {
	nonzero := false
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		nonzero = nonzero || b[i] != '0'
	}
	return i, nonzero
}

// int consumes an integer that must fit a signed integer of the given
// bit size, as the typed decode into an int or int64 field requires.
func (s *scanner) int(bits int) int64 {
	lit, integral, _, _ := s.number()
	if s.err != nil {
		return 0
	}
	if !integral {
		s.fail("want an integer, got %s", lit)
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		s.fail("%s overflows int%d", lit, bits)
		return 0
	}
	return v
}

// float consumes a float64 and reports whether it is zero. A literal
// without an exponent and at most 300 bytes long is below 1e300, so
// only the others need parsing to rule out overflow.
func (s *scanner) float() (zero bool) {
	lit, _, exp, zero := s.number()
	if s.err != nil {
		return false
	}
	if exp || len(lit) > 300 {
		if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
			s.fail("%s overflows float64", lit)
			return false
		}
	}
	return zero
}

// strList consumes the rest of a non-empty string array after its "[".
func (s *scanner) strList() {
	s.str()
	for s.next(",") {
		s.str()
	}
	s.lit("]")
}

// tuple consumes one tuple: an object of string values.
func (s *scanner) tuple() {
	s.lit("{")
	if s.next("}") {
		return
	}
	for s.err == nil {
		s.str()
		s.lit(":")
		s.str()
		if s.next("}") {
			return
		}
		s.lit(",")
	}
}

// fixTail consumes a serve.FixJSON after its leading {"row":N.
func (s *scanner) fixTail() {
	s.lit(`,"attr":`)
	s.str()
	s.lit(`,"old":`)
	s.str()
	s.lit(`,"new":`)
	s.str()
	s.lit(`,"score":`)
	s.float()
	if s.next(`,"rules":[`) {
		s.strList()
	}
	if s.next(`,"evidence":[`) {
		s.evidence()
		for s.next(",") {
			s.evidence()
		}
		s.lit("]")
	}
	s.lit("}")
}

// evidence consumes one serve.EvidenceJSON. Its candidates are not
// omitempty, so a nil list is null and an empty one [].
func (s *scanner) evidence() {
	s.lit(`{"rule":`)
	s.str()
	s.lit(`,"candidates":`)
	if !s.next("null") && !s.next("[]") {
		s.lit("[")
		s.candidate()
		for s.next(",") {
			s.candidate()
		}
		s.lit("]")
	}
	s.lit("}")
}

// candidate consumes one serve.CandidateJSON.
func (s *scanner) candidate() {
	s.lit(`{"value":`)
	s.str()
	s.lit(`,"count":`)
	s.int(strconv.IntSize)
	s.lit(`,"score":`)
	s.float()
	s.lit("}")
}

// resultTail consumes a serve.ValidationJSON after its leading
// {"row":N. Its omitempty fields are absent when empty, never "" or 0.
func (s *scanner) resultTail() {
	s.lit(`,"status":`)
	s.str()
	s.lit(`,"attr":`)
	s.str()
	if s.next(`,"got":`) && s.str() {
		s.fail(`empty "got" is omitted, not written`)
	}
	if s.next(`,"expected":`) && s.str() {
		s.fail(`empty "expected" is omitted, not written`)
	}
	if s.next(`,"score":`) && s.float() {
		s.fail(`zero "score" is omitted, not written`)
	}
	s.lit("}")
}

// cursor is one worker's scanner plus its place in the merge.
type cursor struct {
	scanner
	worker int
	part   []int // part[k] is the batch index of sub-batch row k
	k      int   // elements consumed from the current array
	// The pending fix of the k-way merge: its batch row (-1 once the
	// worker's fixes are exhausted) and its bytes after the row number.
	row  int
	rest []byte
}

func (c *cursor) decodeErr() error {
	return fmt.Errorf("decoding worker %d response: %v", c.worker, c.err)
}

// sep consumes the separator before the cursor's next element of an
// array that must hold one element per sub-batch tuple.
func (c *cursor) sep() {
	if c.k == 0 || c.err != nil {
		return
	}
	if c.next("]") {
		c.fail("array holds %d elements for a %d-tuple sub-batch", c.k, len(c.part))
		return
	}
	c.lit(",")
}

// close consumes the "]" after an array's last expected element.
func (c *cursor) close() {
	if c.err == nil && c.next(",") {
		c.fail("array holds more elements than the %d-tuple sub-batch", len(c.part))
		return
	}
	c.lit("]")
}

// cursors opens every worker body that answered (bodies[w] is nil for a
// worker that drew no tuples) after its head, the opening of its first
// array. It returns the cursors and the batch size.
func cursors(bodies [][]byte, parts [][]int, head string) ([]cursor, int, error) {
	if len(bodies) != len(parts) {
		return nil, 0, fmt.Errorf("%d bodies for %d sub-batches", len(bodies), len(parts))
	}
	cur := make([]cursor, 0, len(bodies))
	n := 0
	for w, b := range bodies {
		n += len(parts[w])
		if b == nil {
			if len(parts[w]) != 0 {
				return nil, 0, fmt.Errorf("worker %d answered no body for a %d-tuple sub-batch", w, len(parts[w]))
			}
			continue
		}
		c := cursor{scanner: scanner{b: b}, worker: w, part: parts[w]}
		c.lit(head)
		if c.err != nil {
			return nil, 0, c.decodeErr()
		}
		cur = append(cur, c)
	}
	return cur, n, nil
}

// interleave writes the elements of the workers' current arrays in
// batch order: batch index i is element k of the worker whose
// part[k] == i. The sub-batches partition the batch and list their
// indices in ascending order, so exactly one cursor's next element is
// i. elem consumes that element and appends what to write for it.
func interleave(dst []byte, cur []cursor, n int, elem func(dst []byte, c *cursor, i int) []byte) ([]byte, error) {
	for i := 0; i < n; i++ {
		var c *cursor
		for j := range cur {
			if cj := &cur[j]; cj.k < len(cj.part) && cj.part[cj.k] == i {
				c = cj
			}
		}
		if c == nil {
			return dst, fmt.Errorf("no sub-batch holds batch index %d", i)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		c.sep()
		if dst = elem(dst, c, i); c.err != nil {
			return dst, c.decodeErr()
		}
		c.k++
	}
	for j := range cur {
		if cur[j].close(); cur[j].err != nil {
			return dst, cur[j].decodeErr()
		}
	}
	return dst, nil
}

// finish consumes each body's trailing counters (named by fields, in
// order) and its end, checks that every worker answered under one rule
// generation, and closes the merged array in dst with the summed
// counters.
func finish(dst []byte, cur []cursor, fields []string, sums []int) ([]byte, error) {
	version := int64(-1)
	for j := range cur {
		c := &cur[j]
		for f, name := range fields {
			c.lit(name)
			sums[f] += int(c.int(strconv.IntSize))
		}
		c.lit(`,"rules_version":`)
		v := c.int(64)
		c.lit("}\n")
		if c.err == nil && c.pos != len(c.b) {
			c.fail("trailing data")
		}
		if c.err != nil {
			return dst, c.decodeErr()
		}
		if version == -1 {
			version = v
		} else if v != version {
			return dst, fmt.Errorf("workers answered under different rule generations (%d vs %d); retry after the rule push settles", version, v)
		}
	}
	dst = append(dst, ']')
	for f, name := range fields {
		dst = append(dst, name...)
		dst = strconv.AppendInt(dst, int64(sums[f]), 10)
	}
	dst = append(dst, `,"rules_version":`...)
	dst = strconv.AppendInt(dst, version, 10)
	return append(dst, "}\n"...), nil
}

var repairCounters = []string{`,"covered":`, `,"changed":`}

// spliceRepair merges the workers' /v1/repair bodies into dst: tuples
// in batch order, fixes k-way merged by batch row (each worker's rows
// ascend, and so does parts[w], so no sort is needed), counters summed.
// parts[w] lists the batch indices of worker w's sub-batch; bodies[w]
// is its answer, nil when it drew no tuples. It returns the merged
// body, the summed changed count, and an error naming the first
// malformed worker body.
func spliceRepair(bodies [][]byte, parts [][]int, dst []byte) ([]byte, int, error) {
	cur, n, err := cursors(bodies, parts, `{"tuples":[`)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, `{"tuples":[`...)
	dst, err = interleave(dst, cur, n, func(dst []byte, c *cursor, _ int) []byte {
		start := c.pos
		c.tuple()
		return append(dst, c.b[start:c.pos]...)
	})
	if err != nil {
		return dst, 0, err
	}
	for j := range cur {
		c := &cur[j]
		c.lit(`,"fixes":[`)
		c.k = 0
		if c.nextFix(); c.err != nil {
			return dst, 0, c.decodeErr()
		}
	}
	dst = append(dst, `],"fixes":[`...)
	for first := true; ; first = false {
		var c *cursor
		for j := range cur {
			if cur[j].row >= 0 && (c == nil || cur[j].row < c.row) {
				c = &cur[j]
			}
		}
		if c == nil {
			break
		}
		if !first {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"row":`...)
		dst = strconv.AppendInt(dst, int64(c.row), 10)
		dst = append(dst, c.rest...)
		if c.nextFix(); c.err != nil {
			return dst, 0, c.decodeErr()
		}
	}
	var sums [2]int
	dst, err = finish(dst, cur, repairCounters, sums[:])
	return dst, sums[1], err
}

// nextFix scans the worker's next fix into the merge head, or sets row
// to -1 at the end of its fixes. Rows must strictly ascend and index
// the sub-batch.
func (c *cursor) nextFix() {
	prev := c.row
	c.row = -1
	if c.err != nil || c.next("]") {
		return
	}
	if c.k > 0 {
		c.lit(",")
	}
	c.lit(`{"row":`)
	r := c.int(strconv.IntSize)
	if c.err != nil {
		return
	}
	if r < 0 || r >= int64(len(c.part)) {
		c.fail("fix row %d outside the %d-tuple sub-batch", r, len(c.part))
		return
	}
	if c.k > 0 && c.part[r] <= prev {
		c.fail("fix row %d does not ascend", r)
		return
	}
	start := c.pos
	c.fixTail()
	c.row, c.rest = c.part[r], c.b[start:c.pos]
	c.k++
}

var validateCounters = []string{`,"violations":`, `,"missing":`, `,"uncovered":`}

// spliceValidate merges the workers' /v1/validate bodies into dst:
// results in batch order, each one's row rewritten from its sub-batch
// position (which it must equal) to its batch index, counters summed.
// Arguments and errors are spliceRepair's.
func spliceValidate(bodies [][]byte, parts [][]int, dst []byte) ([]byte, error) {
	cur, n, err := cursors(bodies, parts, `{"results":[`)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"results":[`...)
	dst, err = interleave(dst, cur, n, func(dst []byte, c *cursor, i int) []byte {
		c.lit(`{"row":`)
		if r := c.int(strconv.IntSize); c.err == nil && r != int64(c.k) {
			c.fail("result row %d at position %d", r, c.k)
		}
		start := c.pos
		c.resultTail()
		dst = append(dst, `{"row":`...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		return append(dst, c.b[start:c.pos]...)
	})
	if err != nil {
		return dst, err
	}
	var sums [3]int
	return finish(dst, cur, validateCounters, sums[:])
}
