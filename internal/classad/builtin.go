package classad

import (
	"math"
	"strings"
)

// builtin implements a ClassAd function. Arguments arrive already
// evaluated; error values must propagate.
type builtin func(args []Value) Value

// builtins lists the functions by their lower-case names; a call node
// holds its function's index here.
var builtins = [...]struct {
	name string
	fn   builtin
}{
	{"floor", fnFloor},
	{"ceil", fnCeil},
	{"ceiling", fnCeil},
	{"round", fnRound},
	{"abs", fnAbs},
	{"min", fnMin},
	{"max", fnMax},
	{"pow", fnPow},
	{"strcat", fnStrcat},
	{"size", fnSize},
	{"tolower", fnToLower},
	{"toupper", fnToUpper},
	{"substr", fnSubstr},
	{"member", fnMember},
	{"isundefined", fnIsUndefined},
	{"iserror", fnIsError},
	{"ifthenelse", fnIfThenElse},
	{"int", fnInt},
	{"real", fnReal},
	{"string", fnString},
}

// builtinIndex returns the index of the function called name, ignoring
// case, or -1.
func builtinIndex(name string) int {
	for i := range builtins {
		if foldCompare(name, builtins[i].name) == 0 {
			return i
		}
	}
	return -1
}

func firstError(args []Value) (Value, bool) {
	for _, a := range args {
		if a.IsError() {
			return a, true
		}
	}
	return Value{}, false
}

func wantArgs(name string, args []Value, n int) (Value, bool) {
	if len(args) != n {
		return Errorf("%s expects %d arguments, got %d", name, n, len(args)), false
	}
	if e, bad := firstError(args); bad {
		return e, false
	}
	return Value{}, true
}

func numeric1(name string, args []Value, f func(float64) Value) Value {
	if e, ok := wantArgs(name, args, 1); !ok {
		return e
	}
	if args[0].IsUndefined() {
		return Undefined()
	}
	x, ok := args[0].RealVal()
	if !ok {
		return Errorf("%s expects a number, got %s", name, args[0].Kind())
	}
	return f(x)
}

func fnFloor(args []Value) Value {
	return numeric1("floor", args, func(x float64) Value { return Int(int64(math.Floor(x))) })
}

func fnCeil(args []Value) Value {
	return numeric1("ceil", args, func(x float64) Value { return Int(int64(math.Ceil(x))) })
}

func fnRound(args []Value) Value {
	return numeric1("round", args, func(x float64) Value { return Int(int64(math.Round(x))) })
}

func fnAbs(args []Value) Value {
	if e, ok := wantArgs("abs", args, 1); !ok {
		return e
	}
	switch args[0].kind {
	case KindInt:
		if args[0].i() < 0 {
			return Int(-args[0].i())
		}
		return args[0]
	case KindReal:
		return Real(math.Abs(args[0].r()))
	case KindUndefined:
		return Undefined()
	}
	return Errorf("abs expects a number, got %s", args[0].Kind())
}

func extremum(name string, args []Value, better func(a, b float64) bool) Value {
	if len(args) == 0 {
		return Errorf("%s expects at least 1 argument", name)
	}
	if e, bad := firstError(args); bad {
		return e
	}
	best := args[0]
	bf, ok := best.RealVal()
	if !ok {
		if best.IsUndefined() {
			return Undefined()
		}
		return Errorf("%s expects numbers, got %s", name, best.Kind())
	}
	for _, a := range args[1:] {
		af, ok := a.RealVal()
		if !ok {
			if a.IsUndefined() {
				return Undefined()
			}
			return Errorf("%s expects numbers, got %s", name, a.Kind())
		}
		if better(af, bf) {
			best, bf = a, af
		}
	}
	return best
}

func fnMin(args []Value) Value {
	return extremum("min", args, func(a, b float64) bool { return a < b })
}

func fnMax(args []Value) Value {
	return extremum("max", args, func(a, b float64) bool { return a > b })
}

func fnPow(args []Value) Value {
	if e, ok := wantArgs("pow", args, 2); !ok {
		return e
	}
	x, xok := args[0].RealVal()
	y, yok := args[1].RealVal()
	if !xok || !yok {
		if args[0].IsUndefined() || args[1].IsUndefined() {
			return Undefined()
		}
		return Errorf("pow expects numbers")
	}
	return Real(math.Pow(x, y))
}

func fnStrcat(args []Value) Value {
	if e, bad := firstError(args); bad {
		return e
	}
	var sb strings.Builder
	for _, a := range args {
		switch a.kind {
		case KindString:
			sb.WriteString(a.str())
		case KindUndefined:
			return Undefined()
		default:
			sb.WriteString(a.String())
		}
	}
	return Str(sb.String())
}

func fnSize(args []Value) Value {
	if e, ok := wantArgs("size", args, 1); !ok {
		return e
	}
	switch args[0].kind {
	case KindString:
		return Int(int64(len(args[0].str())))
	case KindList:
		return Int(int64(len(args[0].list())))
	case KindUndefined:
		return Undefined()
	}
	return Errorf("size expects string or list, got %s", args[0].Kind())
}

func stringFn(name string, args []Value, f func(string) string) Value {
	if e, ok := wantArgs(name, args, 1); !ok {
		return e
	}
	if args[0].IsUndefined() {
		return Undefined()
	}
	s, ok := args[0].StringVal()
	if !ok {
		return Errorf("%s expects a string, got %s", name, args[0].Kind())
	}
	return Str(f(s))
}

func fnToLower(args []Value) Value { return stringFn("toLower", args, strings.ToLower) }
func fnToUpper(args []Value) Value { return stringFn("toUpper", args, strings.ToUpper) }

func fnSubstr(args []Value) Value {
	if len(args) != 2 && len(args) != 3 {
		return Errorf("substr expects 2 or 3 arguments, got %d", len(args))
	}
	if e, bad := firstError(args); bad {
		return e
	}
	s, ok := args[0].StringVal()
	if !ok {
		if args[0].IsUndefined() {
			return Undefined()
		}
		return Errorf("substr expects a string")
	}
	off, ok := args[1].IntVal()
	if !ok {
		return Errorf("substr offset must be an integer")
	}
	if off < 0 {
		off = int64(len(s)) + off
	}
	if off < 0 {
		off = 0
	}
	if off > int64(len(s)) {
		return Str("")
	}
	end := int64(len(s))
	if len(args) == 3 {
		n, ok := args[2].IntVal()
		if !ok {
			return Errorf("substr length must be an integer")
		}
		if n < 0 {
			end = end + n
		} else {
			end = off + n
		}
		if end > int64(len(s)) {
			end = int64(len(s))
		}
		if end < off {
			end = off
		}
	}
	return Str(s[off:end])
}

func fnMember(args []Value) Value {
	if e, ok := wantArgs("member", args, 2); !ok {
		return e
	}
	if args[0].IsUndefined() || args[1].IsUndefined() {
		return Undefined()
	}
	list, ok := args[1].ListVal()
	if !ok {
		return Errorf("member expects a list as second argument")
	}
	for _, e := range list {
		// Case-insensitive string membership, matching comparison rules.
		if e.kind == KindString && args[0].kind == KindString {
			if strings.EqualFold(e.str(), args[0].str()) {
				return Bool(true)
			}
			continue
		}
		if e.Equal(args[0]) {
			return Bool(true)
		}
	}
	return Bool(false)
}

func fnIsUndefined(args []Value) Value {
	if len(args) != 1 {
		return Errorf("isUndefined expects 1 argument")
	}
	return Bool(args[0].IsUndefined())
}

func fnIsError(args []Value) Value {
	if len(args) != 1 {
		return Errorf("isError expects 1 argument")
	}
	return Bool(args[0].IsError())
}

func fnIfThenElse(args []Value) Value {
	if len(args) != 3 {
		return Errorf("ifThenElse expects 3 arguments")
	}
	if args[0].IsError() {
		return args[0]
	}
	b, ok := args[0].BoolVal()
	if !ok {
		if args[0].IsUndefined() {
			return Undefined()
		}
		return Errorf("ifThenElse condition must be boolean")
	}
	if b {
		return args[1]
	}
	return args[2]
}

func fnInt(args []Value) Value {
	if e, ok := wantArgs("int", args, 1); !ok {
		return e
	}
	switch args[0].kind {
	case KindInt:
		return args[0]
	case KindReal:
		return Int(int64(args[0].r()))
	case KindBool:
		if args[0].b() {
			return Int(1)
		}
		return Int(0)
	case KindString:
		var n int64
		var f float64
		if _, err := fmtSscan(args[0].str(), &n); err == nil {
			return Int(n)
		}
		if _, err := fmtSscan(args[0].str(), &f); err == nil {
			return Int(int64(f))
		}
		return Errorf("int: cannot parse %q", args[0].str())
	case KindUndefined:
		return Undefined()
	}
	return Errorf("int: cannot convert %s", args[0].Kind())
}

func fnReal(args []Value) Value {
	if e, ok := wantArgs("real", args, 1); !ok {
		return e
	}
	switch args[0].kind {
	case KindReal:
		return args[0]
	case KindInt:
		return Real(float64(args[0].i()))
	case KindBool:
		if args[0].b() {
			return Real(1)
		}
		return Real(0)
	case KindString:
		var f float64
		if _, err := fmtSscan(args[0].str(), &f); err == nil {
			return Real(f)
		}
		return Errorf("real: cannot parse %q", args[0].str())
	case KindUndefined:
		return Undefined()
	}
	return Errorf("real: cannot convert %s", args[0].Kind())
}

func fnString(args []Value) Value {
	if e, ok := wantArgs("string", args, 1); !ok {
		return e
	}
	if args[0].kind == KindString {
		return args[0]
	}
	if args[0].IsUndefined() {
		return Undefined()
	}
	return Str(args[0].String())
}
