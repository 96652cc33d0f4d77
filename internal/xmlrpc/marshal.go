package xmlrpc

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"
)

// This file is the typed layer of the codec: what the struct tags say (the
// per-type plan the encoder and decoder walk typed values by), the one
// table of what a destination accepts, and Marshal and Unmarshal, which
// convert between typed values and the canonical tree (map[string]any,
// []any, int, bool, string, float64, time.Time, []byte). Handlers and
// clients exchange typed values; the hand-written field plucking the
// services used to carry is replaced by struct tags:
//
//	type Estimate struct {
//		Seconds    float64 `xmlrpc:"seconds"`
//		TasksAhead int     `xmlrpc:"tasks_ahead"`
//		Started    time.Time `xmlrpc:"started,omitempty"`
//		Internal   string  `xmlrpc:"-"`
//	}
//
// Untagged exported fields use their Go name. ",omitempty" drops
// zero-valued fields from the struct, matching the convention of omitting
// unset timestamps on the wire. Anonymous embedded structs without a tag
// are flattened into the parent struct.

var timeType = reflect.TypeOf(time.Time{})

// structField is one wire member of a struct: its own or an embedded one's.
type structField struct {
	name      string // wire member name
	goName    string
	index     []int // reflect.Value.FieldByIndex path from the outer struct
	omitempty bool
	open      string // <member><name>NAME</name><value>, rendered once
	dup       bool   // named as the member before it in the plan
}

// typePlan is what a struct type's tags say, parsed once per type.
type typePlan struct {
	// members are the fields in wire order — sorted by wire name, fields
	// of one name keeping field order — which is the order appendInner
	// emits the keys of Marshal's map in.
	members []structField
	// direct: the decoder may fill the struct member by member, because
	// every wire name is one field and a bitmask can note the ones seen.
	direct bool
}

var typePlans sync.Map // reflect.Type → *typePlan

func planOf(t reflect.Type) *typePlan {
	if p, ok := typePlans.Load(t); ok {
		return p.(*typePlan)
	}
	p := &typePlan{members: appendStructPlan(nil, t, nil)}
	slices.SortStableFunc(p.members, func(a, b structField) int { return strings.Compare(a.name, b.name) })
	p.direct = len(p.members) <= 64
	for i := 1; i < len(p.members); i++ {
		if p.members[i].name == p.members[i-1].name {
			p.members[i].dup, p.direct = true, false
		}
	}
	actual, _ := typePlans.LoadOrStore(t, p)
	return actual.(*typePlan)
}

// find returns the index of the member named key, or -1. Peers send
// members in wire order, so the member at hint, one past the member found
// last, is tried first.
func (p *typePlan) find(key []byte, hint int) int {
	if hint < len(p.members) && p.members[hint].name == string(key) {
		return hint
	}
	for i := range p.members {
		if p.members[i].name == string(key) {
			return i
		}
	}
	return -1
}

// appendStructPlan appends t's members in field order, embedded structs
// flattened in place; prefix is the index path of t inside the outer type.
func appendStructPlan(plan []structField, t reflect.Type, prefix []int) []structField {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("xmlrpc")
		if !f.IsExported() || tag == "-" {
			continue
		}
		index := append(prefix[:len(prefix):len(prefix)], i)
		if f.Anonymous && tag == "" && f.Type.Kind() == reflect.Struct && f.Type != timeType {
			plan = appendStructPlan(plan, f.Type, index)
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		open, _ := appendMemberOpen(nil, name)
		plan = append(plan, structField{name: name, goName: f.Name, index: index,
			omitempty: strings.Contains(","+opts+",", ",omitempty,"), open: string(open)})
	}
	return plan
}

// Marshal converts a typed Go value into the canonical wire value accepted
// by EncodeRequest/EncodeResponse. Scalars pass through, structs become
// map[string]any keyed by their xmlrpc tags, and slices become []any.
func Marshal(v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	return marshalValue(reflect.ValueOf(v))
}

func marshalValue(rv reflect.Value) (any, error) {
	switch rv.Kind() {
	case reflect.Interface, reflect.Pointer:
		if rv.IsNil() {
			return nil, nil
		}
		return marshalValue(rv.Elem())
	}
	if rv.Type() == timeType {
		return rv.Interface().(time.Time), nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		return rv.Bool(), nil
	case reflect.String:
		return rv.String(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return int(rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := rv.Uint()
		if u > math.MaxInt32 {
			return nil, fmt.Errorf("%w: unsigned %d overflows XML-RPC i4", ErrUnsupportedType, u)
		}
		return int(u), nil
	case reflect.Float32, reflect.Float64:
		return rv.Float(), nil
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
			return rv.Bytes(), nil
		}
		out := make([]any, rv.Len())
		for i := range out {
			e, err := marshalValue(rv.Index(i))
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return nil, fmt.Errorf("%w: map key %s (want string)", ErrUnsupportedType, rv.Type().Key())
		}
		out := make(map[string]any, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			e, err := marshalValue(iter.Value())
			if err != nil {
				return nil, err
			}
			out[iter.Key().String()] = e
		}
		return out, nil
	case reflect.Struct:
		plan := planOf(rv.Type()).members
		out := make(map[string]any, len(plan))
		for i := range plan {
			f := &plan[i]
			fv := rv.FieldByIndex(f.index)
			if f.omitempty && fv.IsZero() {
				continue
			}
			w, err := marshalValue(fv)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.goName, err)
			}
			out[f.name] = w
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnsupportedType, rv.Type())
}

// Unmarshal populates out (a non-nil pointer) from a wire value produced
// by the decoder or by Marshal. Numeric conversions follow the lenient
// rules of Params: ints accept integral doubles and doubles accept ints,
// since XML-RPC peers disagree about number types.
func Unmarshal(wire any, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("xmlrpc: Unmarshal into non-pointer %T", out)
	}
	return unmarshalValue(wire, rv.Elem())
}

// unmarshalValue fills rv from a canonical tree: its containers here, its
// leaves through scalar.into.
func unmarshalValue(wire any, rv reflect.Value) error {
	if v, ok := scalarOf(wire); ok {
		return v.into(rv)
	}
	if rv = settle(rv); isAny(rv) {
		rv.Set(reflect.ValueOf(wire))
		return nil
	}
	switch w := wire.(type) {
	case []any:
		switch {
		case rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() != reflect.Uint8:
			rv.Set(reflect.MakeSlice(rv.Type(), len(w), len(w)))
		case rv.Kind() != reflect.Array:
			return unmarshalTypeError(wire, rv)
		case len(w) != rv.Len():
			return fmt.Errorf("xmlrpc: array carries %d elements, want %d for %s", len(w), rv.Len(), rv.Type())
		}
		for i, e := range w {
			if err := unmarshalValue(e, rv.Index(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case map[string]any:
		switch {
		case rv.Kind() == reflect.Map && rv.Type().Key().Kind() == reflect.String:
			out := reflect.MakeMapWithSize(rv.Type(), len(w))
			for k, v := range w {
				ev := reflect.New(rv.Type().Elem()).Elem()
				if err := unmarshalValue(v, ev); err != nil {
					return fmt.Errorf("key %q: %w", k, err)
				}
				out.SetMapIndex(reflect.ValueOf(k).Convert(rv.Type().Key()), ev)
			}
			rv.Set(out)
			return nil
		case rv.Kind() == reflect.Struct && rv.Type() != timeType:
			for i, plan := 0, planOf(rv.Type()).members; i < len(plan); i++ {
				if v, ok := w[plan[i].name]; ok {
					if err := unmarshalValue(v, rv.FieldByIndex(plan[i].index)); err != nil {
						return fmt.Errorf("member %q: %w", plan[i].name, err)
					}
				}
			}
			return nil
		}
	}
	return unmarshalTypeError(wire, rv)
}

// settle follows rv through pointers, allocating the nil ones, to the
// value a non-nil wire value lands in.
func settle(rv reflect.Value) reflect.Value {
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		rv = rv.Elem()
	}
	return rv
}

// isAny reports whether rv is an interface{} variable, which holds the
// canonical value as it is.
func isAny(rv reflect.Value) bool { return rv.Kind() == reflect.Interface && rv.NumMethod() == 0 }

// timeIn returns the time.Time that the addressable rv is, unboxed.
func timeIn(rv reflect.Value) *time.Time { return rv.Addr().Interface().(*time.Time) }

// scalar is one wire value that is not an <array> or a <struct>, unboxed.
// The scanner makes one from a typed element and unmarshalValue from a
// leaf of the tree, and both hand it to into: the one table of what a
// destination accepts.
type scalar struct {
	// kind is the Kind of the canonical Go value: Bool, Int, Float64,
	// String, Struct for a time.Time, Slice for base64, Invalid for nil.
	kind reflect.Kind
	n    int64 // Int; Bool as 0 or 1
	f    float64
	s    string
	b    []byte
	t    time.Time
}

func scalarOf(wire any) (v scalar, ok bool) {
	switch w := wire.(type) {
	case nil:
	case bool:
		if v.kind = reflect.Bool; w {
			v.n = 1
		}
	case int:
		v.kind, v.n = reflect.Int, int64(w)
	case float64:
		v.kind, v.f = reflect.Float64, w
	case string:
		v.kind, v.s = reflect.String, w
	case time.Time:
		v.kind, v.t = reflect.Struct, w
	case []byte:
		v.kind, v.b = reflect.Slice, w
	default:
		return v, false
	}
	return v, true
}

// box returns v as its canonical Go value.
func (v *scalar) box() any {
	switch v.kind {
	case reflect.Bool:
		return v.n != 0
	case reflect.Int:
		return int(v.n)
	case reflect.Float64:
		return v.f
	case reflect.String:
		return v.s
	case reflect.Struct:
		return v.t
	case reflect.Slice:
		return v.b
	}
	return nil
}

// into sets rv to v. <nil/> zeroes any destination and allocates no
// pointer; the numeric rules are the lenient ones of Params: ints accept
// integral doubles and doubles accept ints, since XML-RPC peers disagree
// about number types.
func (v *scalar) into(rv reflect.Value) error {
	if v.kind == reflect.Invalid {
		rv.SetZero()
		return nil
	}
	rv = settle(rv)
	n, integral := v.int64()
	switch k := rv.Kind(); {
	case isAny(rv):
		rv.Set(reflect.ValueOf(v.box()))
	case rv.Type() == timeType && v.kind == reflect.Struct:
		*timeIn(rv) = v.t
	case k == reflect.Bool && v.kind == k:
		rv.SetBool(v.n != 0)
	case k == reflect.String && v.kind == k:
		rv.SetString(v.s)
	case k >= reflect.Int && k <= reflect.Int64 && integral:
		if rv.OverflowInt(n) {
			return fmt.Errorf("xmlrpc: %d overflows %s", n, rv.Type())
		}
		rv.SetInt(n)
	case k >= reflect.Uint && k <= reflect.Uint64 && integral && n >= 0:
		if rv.OverflowUint(uint64(n)) {
			return fmt.Errorf("xmlrpc: %d overflows %s", n, rv.Type())
		}
		rv.SetUint(uint64(n))
	case (k == reflect.Float32 || k == reflect.Float64) && v.kind == reflect.Int:
		rv.SetFloat(float64(v.n))
	case (k == reflect.Float32 || k == reflect.Float64) && v.kind == reflect.Float64:
		rv.SetFloat(v.f)
	case k == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 && v.kind == k:
		rv.SetBytes(v.b)
	default:
		return unmarshalTypeError(v.box(), rv)
	}
	return nil
}

// int64 returns v as an integer: an int, or a double with an integral
// value in [-2^63, 2^63) — bounds that are exact float64 values; outside
// them the conversion would be implementation-defined.
func (v *scalar) int64() (int64, bool) {
	if v.kind == reflect.Float64 && v.f == math.Trunc(v.f) && v.f >= -1<<63 && v.f < 1<<63 {
		return int64(v.f), true
	}
	return v.n, v.kind == reflect.Int
}

func unmarshalTypeError(wire any, rv reflect.Value) error {
	return fmt.Errorf("xmlrpc: cannot unmarshal %T into %s", wire, rv.Type())
}
