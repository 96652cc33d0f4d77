package xmlrpc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"time"
)

// This file is the typed layer of the codec: reflection-based conversion
// between Go structs/slices and the wire representation the encoder and
// decoder speak (map[string]any, []any, int, bool, string, float64,
// time.Time, []byte). Handlers and clients exchange typed values; the
// hand-written field plucking the services used to carry is replaced by
// struct tags:
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
}

// structPlans caches what the tags say, parsed once per struct type.
var structPlans sync.Map // reflect.Type → []structField

func structPlan(t reflect.Type) []structField {
	if p, ok := structPlans.Load(t); ok {
		return p.([]structField)
	}
	p, _ := structPlans.LoadOrStore(t, appendStructPlan(nil, t, nil))
	return p.([]structField)
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
		plan = append(plan, structField{name, f.Name, index, strings.Contains(","+opts+",", ",omitempty,")})
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
		plan := structPlan(rv.Type())
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

func unmarshalValue(wire any, rv reflect.Value) error {
	if wire == nil {
		rv.SetZero()
		return nil
	}
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		return unmarshalValue(wire, rv.Elem())
	}
	if rv.Kind() == reflect.Interface && rv.NumMethod() == 0 {
		rv.Set(reflect.ValueOf(wire))
		return nil
	}
	if rv.Type() == timeType {
		t, ok := wire.(time.Time)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		rv.Set(reflect.ValueOf(t))
		return nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		b, ok := wire.(bool)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		rv.SetBool(b)
	case reflect.String:
		s, ok := wire.(string)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		rv.SetString(s)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, ok := wireInt(wire)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		if rv.OverflowInt(n) {
			return fmt.Errorf("xmlrpc: %d overflows %s", n, rv.Type())
		}
		rv.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, ok := wireInt(wire)
		if !ok || n < 0 {
			return unmarshalTypeError(wire, rv)
		}
		if rv.OverflowUint(uint64(n)) {
			return fmt.Errorf("xmlrpc: %d overflows %s", n, rv.Type())
		}
		rv.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		switch w := wire.(type) {
		case float64:
			rv.SetFloat(w)
		case int:
			rv.SetFloat(float64(w))
		default:
			return unmarshalTypeError(wire, rv)
		}
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			b, ok := wire.([]byte)
			if !ok {
				return unmarshalTypeError(wire, rv)
			}
			rv.SetBytes(b)
			return nil
		}
		arr, ok := wire.([]any)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		out := reflect.MakeSlice(rv.Type(), len(arr), len(arr))
		for i, e := range arr {
			if err := unmarshalValue(e, out.Index(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		rv.Set(out)
	case reflect.Array:
		arr, ok := wire.([]any)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		if len(arr) != rv.Len() {
			return fmt.Errorf("xmlrpc: array carries %d elements, want %d for %s",
				len(arr), rv.Len(), rv.Type())
		}
		for i, e := range arr {
			if err := unmarshalValue(e, rv.Index(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("xmlrpc: cannot unmarshal into map keyed by %s", rv.Type().Key())
		}
		m, ok := wire.(map[string]any)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		out := reflect.MakeMapWithSize(rv.Type(), len(m))
		for k, v := range m {
			ev := reflect.New(rv.Type().Elem()).Elem()
			if err := unmarshalValue(v, ev); err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			}
			out.SetMapIndex(reflect.ValueOf(k), ev)
		}
		rv.Set(out)
	case reflect.Struct:
		m, ok := wire.(map[string]any)
		if !ok {
			return unmarshalTypeError(wire, rv)
		}
		return unmarshalStructFrom(m, rv)
	default:
		return fmt.Errorf("xmlrpc: cannot unmarshal into %s", rv.Type())
	}
	return nil
}

func unmarshalStructFrom(m map[string]any, rv reflect.Value) error {
	for _, f := range structPlan(rv.Type()) {
		w, ok := m[f.name]
		if !ok {
			continue
		}
		if err := unmarshalValue(w, rv.FieldByIndex(f.index)); err != nil {
			return fmt.Errorf("member %q: %w", f.name, err)
		}
	}
	return nil
}

func wireInt(wire any) (int64, bool) {
	// Bounds are exact float64 values; doubles outside them would make
	// the int64 conversion implementation-defined.
	const (
		minInt64 = -9223372036854775808 // -2^63
		maxInt64 = 9223372036854775808  // 2^63
	)
	switch w := wire.(type) {
	case int:
		return int64(w), true
	case float64:
		if w == math.Trunc(w) && w >= minInt64 && w < maxInt64 {
			return int64(w), true
		}
	}
	return 0, false
}

func unmarshalTypeError(wire any, rv reflect.Value) error {
	return fmt.Errorf("xmlrpc: cannot unmarshal %T into %s", wire, rv.Type())
}
