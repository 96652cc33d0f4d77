package classad

// Go converts the value back to a plain Go value (nil for undefined,
// error values become strings prefixed "error:").
func (v Value) Go() any {
	switch v.kind {
	case KindUndefined:
		return nil
	case KindError:
		return "error:" + v.str()
	case KindBool:
		return v.b()
	case KindInt:
		return int(v.i())
	case KindReal:
		return v.r()
	case KindString:
		return v.str()
	case KindList:
		l := v.list()
		out := make([]any, len(l))
		for i, e := range l {
			out[i] = e.Go()
		}
		return out
	}
	return nil
}
