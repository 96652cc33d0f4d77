// Package classad implements a ClassAd-style attribute and expression
// language, the matchmaking substrate of the Condor-like execution service
// (internal/condor).
//
// A ClassAd (classified advertisement) is a set of named attributes whose
// values are literals or expressions. Jobs advertise Requirements and Rank
// expressions over machine attributes; machines advertise the same over job
// attributes; the negotiator pairs ads whose Requirements are mutually
// satisfied. The GAE paper's execution service is "based on any execution
// engine such as Condor", and its estimator matches "tasks with similar
// characteristics", which this package expresses as attribute templates.
//
// The dialect implemented here covers the classic ClassAd core:
//
//   - types: integer, real, string, boolean, undefined, error, list
//   - operators: + - * / %  == != < <= > >=  && || !  unary -
//   - three-valued logic: undefined propagates through comparisons and is
//     absorbed by && / || exactly as in Condor's matchmaker
//   - scopes: MY.attr, TARGET.attr, and unqualified names that resolve in
//     self first, then target
//   - builtin functions: floor ceil round abs min max strcat size toLower
//     toUpper substr member isUndefined ifThenElse pow
//
// Attribute names are case-insensitive, as in Condor.
//
// The execution service keeps an ad for every job it ever held, so what
// one weighs is a budget: an Ad is one slice searched linearly (see Ad),
// a Matcher holds only what a match reads, and tests gate the sizes.
package classad

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates value kinds.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindError
	KindBool
	KindInt
	KindReal
	KindString
	KindList
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindError:
		return "error"
	case KindBool:
		return "boolean"
	case KindInt:
		return "integer"
	case KindReal:
		return "real"
	case KindString:
		return "string"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is a ClassAd value. The zero Value is undefined.
//
// The struct is three words: every Eval returns one by value, so its size
// is the matchmaking hot path's copy cost, and every literal attribute of
// every ad holds one. Booleans, integers and reals share the 64-bit payload
// n; a string's content or an error's message is p and n, its bytes and
// length; a list is p, pointing at its slice.
type Value struct {
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

func (v Value) b() bool    { return v.n != 0 }
func (v Value) i() int64   { return int64(v.n) }
func (v Value) r() float64 { return math.Float64frombits(v.n) }

// str returns a string's content or an error's message, "" for any other
// kind.
func (v Value) str() string {
	if v.kind != KindString && v.kind != KindError {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

func (v Value) list() []Value {
	if v.kind != KindList {
		return nil
	}
	return *(*[]Value)(v.p)
}

// text returns a string or error value holding s.
func text(k Kind, s string) Value {
	return Value{kind: k, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Constructors.

// Undefined returns the undefined value.
func Undefined() Value { return Value{kind: KindUndefined} }

// Errorf returns an error value with a formatted message.
func Errorf(format string, args ...any) Value {
	return text(KindError, fmt.Sprintf(format, args...))
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Real returns a real value.
func Real(r float64) Value { return Value{kind: KindReal, n: math.Float64bits(r)} }

// Str returns a string value.
func Str(s string) Value { return text(KindString, s) }

// List returns a list value.
func List(vs ...Value) Value { return Value{kind: KindList, p: unsafe.Pointer(&vs)} }

// From converts a Go value into a ClassAd Value. Unsupported types yield
// an error value.
func From(v any) Value {
	switch x := v.(type) {
	case nil:
		return Undefined()
	case Value:
		return x
	case bool:
		return Bool(x)
	case int:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case float32:
		return Real(float64(x))
	case float64:
		return Real(x)
	case string:
		return Str(x)
	case []string:
		vs := make([]Value, len(x))
		for i, s := range x {
			vs[i] = Str(s)
		}
		return List(vs...)
	case []any:
		vs := make([]Value, len(x))
		for i, e := range x {
			vs[i] = From(e)
		}
		return List(vs...)
	default:
		return Errorf("unconvertible Go type %T", v)
	}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsError reports whether v is an error value.
func (v Value) IsError() bool { return v.kind == KindError }

// BoolVal returns the boolean content; ok is false for non-booleans.
func (v Value) BoolVal() (val, ok bool) { return v.b(), v.kind == KindBool }

// IntVal returns the integer content; ok is false for non-integers.
func (v Value) IntVal() (int64, bool) { return v.i(), v.kind == KindInt }

// RealVal returns the value as float64 for int or real kinds.
func (v Value) RealVal() (float64, bool) {
	switch v.kind {
	case KindReal:
		return v.r(), true
	case KindInt:
		return float64(v.i()), true
	}
	return 0, false
}

// StringVal returns the string content; ok is false for non-strings.
func (v Value) StringVal() (string, bool) { return v.str(), v.kind == KindString }

// ListVal returns the list content; ok is false for non-lists.
func (v Value) ListVal() ([]Value, bool) { return v.list(), v.kind == KindList }

// String renders the value in ClassAd literal syntax.
func (v Value) String() string { return string(v.appendTo(nil)) }

// appendTo appends the value's literal text to b.
func (v Value) appendTo(b []byte) []byte {
	switch v.kind {
	case KindUndefined:
		return append(b, "undefined"...)
	case KindError:
		return append(append(append(b, "error("...), v.str()...), ')')
	case KindBool:
		return strconv.AppendBool(b, v.b())
	case KindInt:
		return strconv.AppendInt(b, v.i(), 10)
	case KindReal:
		return strconv.AppendFloat(b, v.r(), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, v.str())
	case KindList:
		b = append(b, '{')
		for i, e := range v.list() {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = e.appendTo(b)
		}
		return append(b, '}')
	}
	return append(b, '?')
}

// Equal reports deep equality of two values (same kind and content).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindUndefined:
		return true
	case KindError:
		return v.str() == o.str()
	case KindBool:
		return v.b() == o.b()
	case KindInt:
		return v.i() == o.i()
	case KindReal:
		return v.r() == o.r() || (math.IsNaN(v.r()) && math.IsNaN(o.r()))
	case KindString:
		return v.str() == o.str()
	case KindList:
		vl, ol := v.list(), o.list()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Ad is a ClassAd: a case-insensitive set of named attributes, each a
// literal (Value) or an unevaluated expression (Expr).
//
// The attributes sit in one slice, in the order they were first set, each
// with a 32-bit key of its case-folded name (foldKey), as each attribute
// reference of a parsed expression has: a lookup compares keys and
// confirms a hit by the name. The ads this system builds carry 3 to 15
// attributes: at that size a scan of one contiguous array is as fast as a
// hash table (classad.match_ns and classad.rank_ns in bench/ would say
// otherwise), and an ad costs a 40-byte header (the allocator's 48-byte
// class) plus 48 bytes an attribute (a three-attribute job ad: 48 + 144),
// a fraction of a hash table's smallest bucket group. Nothing observable depends on the order: Names,
// String and so the snapshot text sort.
//
// An expression attribute points at a block shared by every ad that
// stored the same source text (a table of at most 4 096 texts, none over
// 1 KiB; see shared): a block retains only its own copy of that text.
type Ad struct {
	attrs []entry
	// version counts mutations; compiled Matchers use it to detect that
	// their compiled Requirements/Rank are stale.
	version uint64
	exprs   int32 // attributes that hold an expression
}

// mutated bumps the version.
func (a *Ad) mutated() { a.version++ }

// entry is one attribute: its name as last written, as its bytes and
// length, and the name's foldKey; there is no lower-cased copy of it.
type entry struct {
	np   unsafe.Pointer
	nlen uint32
	key  uint32
	val  Value
	expr *Expr // non-nil when the attribute is an expression
}

func newEntry(name string, val Value, expr *Expr) entry {
	return entry{np: unsafe.Pointer(unsafe.StringData(name)), nlen: uint32(len(name)), key: foldKey(name), val: val, expr: expr}
}

func (e *entry) name() string { return unsafe.String((*byte)(e.np), int(e.nlen)) }

// New returns an empty ad.
func New() *Ad { return &Ad{} }

// find returns the index of the attribute called name, or -1. Two names
// are the same attribute when they are equal after strings.ToLower.
func (a *Ad) find(name string) int { return a.index(name, foldKey(name)) }

// Name is an attribute name with its foldKey computed once, for a caller
// that looks the same name up again and again: a lookup by a Name is
// find's, without hashing the name.
type Name struct {
	text string
	key  uint32
}

// NameOf returns name keyed.
func NameOf(name string) Name { return Name{text: name, key: foldKey(name)} }

// at is find for a keyed name.
func (a *Ad) at(n Name) int { return a.index(n.text, n.key) }

// Get evaluates attribute n in the context of this ad alone: undefined
// when the ad has no such attribute.
func (a *Ad) Get(n Name) Value {
	i := a.at(n)
	if i < 0 {
		return Undefined()
	}
	return a.attrs[i].eval(scope{self: a})
}

// index is find for a name whose foldKey is known: a key hit is confirmed
// by the name, compared as written first.
func (a *Ad) index(name string, key uint32) int {
	for i := range a.attrs {
		if e := &a.attrs[i]; e.key == key && (e.name() == name || foldCompare(e.name(), name) == 0) {
			return i
		}
	}
	return -1
}

// put writes e over the attribute of the same name, in place, or appends
// it; the first append sizes the slice for a small ad in one step.
func (a *Ad) put(e entry) {
	if e.expr != nil {
		a.exprs++
	}
	if i := a.index(e.name(), e.key); i >= 0 {
		if a.attrs[i].expr != nil {
			a.exprs--
		}
		a.attrs[i] = e
		return
	}
	if a.attrs == nil {
		a.attrs = make([]entry, 0, 4)
	}
	a.attrs = append(a.attrs, e)
}

// Set stores a literal attribute, converting the Go value via From.
func (a *Ad) Set(name string, v any) *Ad { return a.SetValue(name, From(v)) }

// SetValue stores a literal attribute: Set for a value already converted,
// which a caller that writes often can hand over without boxing it.
func (a *Ad) SetValue(name string, v Value) *Ad {
	a.put(newEntry(name, v, nil))
	a.mutated()
	return a
}

// Grow makes room for n more attributes, so that an ad whose size its
// builder knows is allocated once and to that size.
func (a *Ad) Grow(n int) { a.attrs = slices.Grow(a.attrs, n) }

// SetExpr stores src's expression under name, parsed once per text (see
// Ad).
func (a *Ad) SetExpr(name, src string) error {
	e, err := parseShared(src)
	if err != nil {
		return fmt.Errorf("classad: attribute %s: %w", name, err)
	}
	a.put(newEntry(name, Value{}, e))
	a.mutated()
	return nil
}

// MustSetExpr is SetExpr that panics on parse errors; for literals in code.
func (a *Ad) MustSetExpr(name, src string) *Ad {
	if err := a.SetExpr(name, src); err != nil {
		panic(err)
	}
	return a
}

// Has reports whether the attribute exists.
func (a *Ad) Has(name string) bool { return a.find(name) >= 0 }

// Names returns the attribute names in sorted order (original case).
func (a *Ad) Names() []string {
	out := make([]string, len(a.attrs))
	for i := range a.attrs {
		out[i] = a.attrs[i].name()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of attributes.
func (a *Ad) Len() int { return len(a.attrs) }

// eval returns the attribute's value: its literal, or its expression
// evaluated in sc.
func (e *entry) eval(sc scope) Value {
	if e.expr == nil {
		return e.val
	}
	return e.expr.Eval(sc)
}

// String renders the ad in [a = 1; b = "x";] form with sorted attributes.
func (a *Ad) String() string {
	sorted := slices.Clone(a.attrs)
	slices.SortFunc(sorted, func(x, y entry) int { return strings.Compare(x.name(), y.name()) })
	b := []byte{'['}
	for i, e := range sorted {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = append(append(b, e.name()...), " = "...)
		if e.expr != nil {
			b = appendNode(b, e.expr.nodes(), 0)
		} else {
			b = e.val.appendTo(b)
		}
	}
	return string(append(b, ']'))
}

// LiteralString returns the attribute's value when it is stored as a
// string literal — not an expression. Index builders use it because only
// literal values are target-independent: an expression may evaluate
// differently against every candidate, even if it happens to produce a
// string with no target in scope.
func (a *Ad) LiteralString(name string) (string, bool) {
	i := a.find(name)
	if i < 0 || a.attrs[i].expr != nil {
		return "", false
	}
	return a.attrs[i].val.StringVal()
}

// Clone returns a deep-enough copy (expressions are immutable and shared).
func (a *Ad) Clone() *Ad {
	return &Ad{attrs: slices.Clone(a.attrs), exprs: a.exprs}
}
