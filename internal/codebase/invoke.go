package codebase

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Invoke calls the named exported method on obj with args, playing the
// role of Java reflection under sinvoke/ainvoke/oinvoke (§4.5):
// JavaSymphony methods are addressed by name and receive their parameters
// as an array of objects.
//
// Supported method shapes (T is any gob-encodable type):
//
//	func (o *C) M(args...) T
//	func (o *C) M(args...) (T, error)
//	func (o *C) M(args...) error
//	func (o *C) M(args...)
//
// The result is the single non-error return value (nil if none).  A
// returned non-nil error is propagated.  Argument values are converted to
// the parameter types when assignable or numerically convertible, which
// absorbs gob's integer-width normalization.
func Invoke(obj any, method string, args []any) (any, error) {
	m, err := Resolve(obj, method)
	if err != nil {
		return nil, err
	}
	return m.Call(obj, args)
}

// HasMethod reports whether obj exposes the named exported method.
func HasMethod(obj any, method string) bool {
	_, err := Resolve(obj, method)
	return err == nil
}

// Method is one exported method of a concrete type, resolved once: its
// function and signature.  Resolving by name on every call is what Java
// reflection does; caching the resolution is what makes per-call
// dispatch a map hit.
type Method struct {
	name     string
	fn       reflect.Value  // func with the receiver as parameter 0
	in       []reflect.Type // parameter types, receiver excluded
	variadic bool
}

// methodTables maps a receiver type to its exported methods by name
// (map[string]*Method).  Tables are built on a type's first dispatch and
// never change, so lookups take no lock; there is one per type ever
// dispatched on, each bounded by that type's method set.
var methodTables sync.Map

// Resolve returns the named exported method of obj's dynamic type.
func Resolve(obj any, method string) (*Method, error) {
	if obj == nil {
		return nil, errors.New("codebase: invoke on nil object")
	}
	t := reflect.TypeOf(obj)
	tab, ok := methodTables.Load(t)
	if !ok {
		tab, _ = methodTables.LoadOrStore(t, methodTable(t))
	}
	m := tab.(map[string]*Method)[method]
	if m == nil {
		return nil, fmt.Errorf("codebase: %T has no method %q", obj, method)
	}
	return m, nil
}

// methodTable resolves every exported method of t.
func methodTable(t reflect.Type) map[string]*Method {
	tab := make(map[string]*Method, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		rm := t.Method(i)
		ft := rm.Type // receiver is parameter 0
		in := make([]reflect.Type, ft.NumIn()-1)
		for j := range in {
			in[j] = ft.In(j + 1)
		}
		tab[rm.Name] = &Method{name: rm.Name, fn: rm.Func, in: in, variadic: ft.IsVariadic()}
	}
	return tab
}

// FirstParam returns the type of the method's first parameter, or nil
// if it takes none.  Callers use it to recognise methods that declare
// an injected context argument.
func (m *Method) FirstParam() reflect.Type {
	if len(m.in) == 0 {
		return nil
	}
	return m.in[0]
}

// Call invokes the method on obj, which must be of the type m was
// resolved on, with the same argument conversion and result mapping as
// Invoke.
func (m *Method) Call(obj any, args []any) (any, error) {
	return m.call(obj, nil, args)
}

// CallWith is Call with first prepended to args, for a context argument
// injected by the caller.
func (m *Method) CallWith(obj, first any, args []any) (any, error) {
	return m.call(obj, &first, args)
}

func (m *Method) call(obj any, first *any, args []any) (any, error) {
	in, err := m.buildArgs(first, args)
	if err != nil {
		return nil, err
	}
	// Calling the method's func with an explicit receiver, rather than a
	// bound method value, spares reflect an allocation per call.
	in[0] = reflect.ValueOf(obj)
	return splitResults(m.name, m.fn.Call(in))
}

// buildArgs converts args, after first if non-nil, to the method's
// parameter types.  The result has a leading slot for the receiver.
func (m *Method) buildArgs(first *any, args []any) ([]reflect.Value, error) {
	method, want := m.name, len(m.in)
	if m.variadic {
		return nil, fmt.Errorf("codebase: variadic method %q not supported", method)
	}
	got, skip := len(args), 0
	if first != nil {
		got, skip = got+1, 1
	}
	if got != want {
		return nil, fmt.Errorf("codebase: method %q takes %d parameters, got %d", method, want, got)
	}
	in := make([]reflect.Value, 1+want)
	for i := 0; i < want; i++ {
		var a any
		if i < skip {
			a = *first
		} else {
			a = args[i-skip]
		}
		pt := m.in[i]
		if a == nil {
			switch pt.Kind() {
			case reflect.Ptr, reflect.Interface, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func:
				in[1+i] = reflect.Zero(pt)
				continue
			default:
				return nil, fmt.Errorf("codebase: nil argument %d for non-nilable parameter %s of %q", i, pt, method)
			}
		}
		av := reflect.ValueOf(a)
		switch {
		case av.Type().AssignableTo(pt):
			in[1+i] = av
		case av.Type().ConvertibleTo(pt) && convertSafe(av.Type(), pt):
			in[1+i] = av.Convert(pt)
		default:
			return nil, fmt.Errorf("codebase: argument %d of %q is %s, want %s", i, method, av.Type(), pt)
		}
	}
	return in, nil
}

// convertSafe permits only numeric-to-numeric conversions, avoiding
// surprising string/byte-slice coercions.
func convertSafe(from, to reflect.Type) bool {
	return isNumeric(from.Kind()) && isNumeric(to.Kind())
}

func isNumeric(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// splitResults maps reflect.Call output to (result, error).
func splitResults(method string, out []reflect.Value) (any, error) {
	switch len(out) {
	case 0:
		return nil, nil
	case 1:
		if out[0].Type().Implements(errType) {
			return nil, asError(out[0])
		}
		return out[0].Interface(), nil
	case 2:
		if !out[1].Type().Implements(errType) {
			return nil, fmt.Errorf("codebase: method %q second result must be error", method)
		}
		if err := asError(out[1]); err != nil {
			return nil, err
		}
		return out[0].Interface(), nil
	default:
		return nil, fmt.Errorf("codebase: method %q returns %d values; at most (T, error) supported", method, len(out))
	}
}

func asError(v reflect.Value) error {
	if v.IsNil() {
		return nil
	}
	return v.Interface().(error)
}
