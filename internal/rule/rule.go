// Package rule implements the editing-rule (eR) formalism of the paper
// (Definition 1): φ = ((X, X_m) → (Y, Y_m), t_p), together with pattern
// and rule domination (Definitions 2–3) and non-redundant rule sets
// (Definition 4).
//
// A pattern condition generalises the paper's single-constant t_p[A] = a
// to a set of codes on attribute A. A singleton set is exactly the
// paper's constant condition; a larger set represents one encoding unit
// produced by continuous-range splitting or prefix-bucket domain
// compression (§IV-A), where one action/state dimension stands for a
// group of raw values.
package rule

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"erminer/internal/relation"
)

// AttrPair is one (A, A_m) pair in LHS(φ): Input indexes the input schema
// R, Master indexes the master schema R_m.
type AttrPair struct {
	Input  int
	Master int
}

// Condition is one conjunct of the pattern tuple t_p: the input tuple's
// value on Attr must be one of Codes (or, when Negate is set, must be a
// non-Null value outside Codes — the ā form of Fan et al. [18] that the
// paper omits for simplicity and this implementation supports as an
// optional extension). Codes is sorted ascending and contains no
// duplicates and never relation.Null.
type Condition struct {
	Attr  int
	Codes []int32
	// Negate flips the membership test: t_p[Attr] ≠ a.
	Negate bool
	// Label is an optional human-readable description of the code set,
	// e.g. "age∈[28,37)" for a continuous range. It does not take part
	// in equality or domination.
	Label string
}

// NewCondition builds a condition, normalising (sorting, deduplicating)
// the code set.
func NewCondition(attr int, codes []int32, label string) Condition {
	cs := append([]int32(nil), codes...)
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	out := cs[:0]
	var prev int32 = -2
	for _, c := range cs {
		if c == relation.Null {
			continue
		}
		if c != prev {
			out = append(out, c)
			prev = c
		}
	}
	return Condition{Attr: attr, Codes: out, Label: label}
}

// Eq builds the paper's constant condition t_p[attr] = code.
func Eq(attr int, code int32) Condition {
	return Condition{Attr: attr, Codes: []int32{code}}
}

// NotEq builds the negated constant condition t_p[attr] ≠ code (the ā
// form of [18]).
func NotEq(attr int, code int32) Condition {
	return Condition{Attr: attr, Codes: []int32{code}, Negate: true}
}

// Matches reports whether code satisfies the condition. A Null value
// never matches — not even a negated condition, since a missing value
// provides no evidence either way.
func (c Condition) Matches(code int32) bool {
	if code == relation.Null {
		return false
	}
	return c.contains(code) != c.Negate
}

func (c Condition) contains(code int32) bool {
	// Codes is sorted; binary search.
	lo, hi := 0, len(c.Codes)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.Codes[mid] == code:
			return true
		case c.Codes[mid] < code:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// SameCodes reports whether two conditions constrain the same attribute to
// the same code set with the same polarity.
func (c Condition) SameCodes(o Condition) bool {
	if c.Attr != o.Attr || c.Negate != o.Negate || len(c.Codes) != len(o.Codes) {
		return false
	}
	for i := range c.Codes {
		if c.Codes[i] != o.Codes[i] {
			return false
		}
	}
	return true
}

// Rule is one editing rule φ = ((X, X_m) → (Y, Y_m), t_p).
//
// LHS holds the matched attribute pairs (X, X_m); Pattern holds the
// conjuncts of t_p. Both are kept sorted (LHS by input attribute, Pattern
// by attribute then first code) so that equal rules have equal canonical
// keys. A rule does not change once New, WithLHS or WithCondition has
// returned it: String relies on that, and a child shares its parent's
// slices.
type Rule struct {
	LHS     []AttrPair
	Y       int // dependent attribute in R
	Ym      int // dependent attribute in R_m
	Pattern []Condition

	// rendered is String's last result with the context it was
	// rendered in.
	rendered atomic.Pointer[rendering]
}

// rendering is one String result and its render context: the input
// schema, the dictionary pool of the input relation, and the master
// schema. The schema and pool fix which dictionary each column reads,
// and dictionaries only grow, so equal contexts render equal strings.
type rendering struct {
	input  *relation.Schema
	pool   *relation.Pool
	master *relation.Schema
	s      string
}

// New builds a rule, normalising the order of LHS and Pattern.
func New(lhs []AttrPair, y, ym int, pattern []Condition) *Rule {
	r := &Rule{
		LHS:     append([]AttrPair(nil), lhs...),
		Y:       y,
		Ym:      ym,
		Pattern: append([]Condition(nil), pattern...),
	}
	r.normalise()
	return r
}

func (r *Rule) normalise() {
	sort.Slice(r.LHS, func(i, j int) bool { return lessPair(r.LHS[i], r.LHS[j]) })
	sort.Slice(r.Pattern, func(i, j int) bool { return lessCond(r.Pattern[i], r.Pattern[j]) })
}

// lessPair and lessCond are the canonical orders of LHS and Pattern:
// New sorts by them and WithLHS and WithCondition insert by them.
func lessPair(a, b AttrPair) bool {
	if a.Input != b.Input {
		return a.Input < b.Input
	}
	return a.Master < b.Master
}

func lessCond(a, b Condition) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if len(a.Codes) == 0 || len(b.Codes) == 0 {
		return len(a.Codes) < len(b.Codes)
	}
	return a.Codes[0] < b.Codes[0]
}

// WithLHS returns the rule with (a, am) added to LHS. The child shares
// the receiver's pattern, which neither rule ever changes; its capacity
// is capped, so even an append would copy it.
func (r *Rule) WithLHS(a, am int) *Rule {
	return &Rule{
		LHS:     insert(r.LHS, AttrPair{Input: a, Master: am}, lessPair),
		Y:       r.Y,
		Ym:      r.Ym,
		Pattern: r.Pattern[:len(r.Pattern):len(r.Pattern)],
	}
}

// WithCondition returns the rule with cond added to the pattern. The
// child shares the receiver's LHS (capacity capped, as in WithLHS) and
// code sets, which neither rule ever changes.
func (r *Rule) WithCondition(cond Condition) *Rule {
	return &Rule{
		LHS:     r.LHS[:len(r.LHS):len(r.LHS)],
		Y:       r.Y,
		Ym:      r.Ym,
		Pattern: insert(r.Pattern, cond, lessCond),
	}
}

// insert returns a new slice holding the sorted s with x after every
// element not greater than it: where a stable sort of append(s, x)
// places x.
func insert[T any](s []T, x T, less func(a, b T) bool) []T {
	i := len(s)
	for i > 0 && less(x, s[i-1]) {
		i--
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// HasLHSAttr reports whether input attribute a appears in X.
func (r *Rule) HasLHSAttr(a int) bool {
	for _, p := range r.LHS {
		if p.Input == a {
			return true
		}
	}
	return false
}

// HasPatternAttr reports whether attribute a appears in X_p.
func (r *Rule) HasPatternAttr(a int) bool {
	for _, c := range r.Pattern {
		if c.Attr == a {
			return true
		}
	}
	return false
}

// Key returns a canonical string key identifying the rule. Two rules have
// equal keys iff they have the same LHS, dependent pair and pattern
// (labels excluded). Keys order top-K ties and key maps, so their bytes
// are fixed: "Y<y>:<ym>|L(<in>,<m>)…|P(<attr>:<code>,…)…", with "(!"
// opening a negated condition.
func (r *Rule) Key() string {
	var arr [64]byte
	b := append(arr[:0], 'Y')
	b = strconv.AppendInt(b, int64(r.Y), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(r.Ym), 10)
	b = append(b, "|L"...)
	for _, p := range r.LHS {
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(p.Input), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Master), 10)
		b = append(b, ')')
	}
	b = append(b, "|P"...)
	for _, c := range r.Pattern {
		b = append(b, '(')
		if c.Negate {
			b = append(b, '!')
		}
		b = strconv.AppendInt(b, int64(c.Attr), 10)
		b = append(b, ':')
		for i, code := range c.Codes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(code), 10)
		}
		b = append(b, ')')
	}
	return string(b)
}

// MatchesPattern reports whether input tuple row of rel matches t_p.
func (r *Rule) MatchesPattern(rel *relation.Relation, row int) bool {
	for _, c := range r.Pattern {
		if !c.Matches(rel.Code(row, c.Attr)) {
			return false
		}
	}
	return true
}

// String renders the rule using attribute names from the two schemas and
// values from the input relation's dictionaries. The rule keeps its last
// rendering: a call in the same context (input schema, input pool and
// master schema, compared as pointers) returns it, and a call in another
// context renders afresh and replaces it. Concurrent calls are safe
// while nothing writes the dictionaries; two first calls at once both
// render the same string.
func (r *Rule) String(input *relation.Relation, rm *relation.Schema) string {
	rs, pool := input.Schema(), input.Pool()
	if c := r.rendered.Load(); c != nil && c.input == rs && c.pool == pool && c.master == rm {
		return c.s
	}
	s := r.render(input, rm)
	r.rendered.Store(&rendering{input: rs, pool: pool, master: rm, s: s})
	return s
}

// render formats the rule for String.
func (r *Rule) render(input *relation.Relation, rm *relation.Schema) string {
	rs := input.Schema()
	var b strings.Builder
	b.WriteString("((")
	for i, p := range r.LHS {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s,%s)", rs.Attr(p.Input).Name, rm.Attr(p.Master).Name)
	}
	fmt.Fprintf(&b, ") -> (%s,%s), tp[", rs.Attr(r.Y).Name, rm.Attr(r.Ym).Name)
	for i, c := range r.Pattern {
		if i > 0 {
			b.WriteString(", ")
		}
		if c.Label != "" {
			b.WriteString(c.Label)
			continue
		}
		op, setOp := "=", "∈"
		if c.Negate {
			op, setOp = "≠", "∉"
		}
		if len(c.Codes) == 1 {
			fmt.Fprintf(&b, "%s%s%s", rs.Attr(c.Attr).Name, op, input.Dict(c.Attr).Value(c.Codes[0]))
		} else {
			fmt.Fprintf(&b, "%s%s{", rs.Attr(c.Attr).Name, setOp)
			for j, code := range c.Codes {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(input.Dict(c.Attr).Value(code))
			}
			b.WriteByte('}')
		}
	}
	b.WriteString("])")
	return b.String()
}
