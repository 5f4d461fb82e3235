package rmi

import (
	"context"
	"fmt"
	"reflect"
)

// BindStruct fills target — a pointer to a struct of exported func fields —
// with typed stubs for the methods of the named export on addr. It is the
// Go analog of RMI's generated stub classes, built at runtime with
// reflection instead of a compiler (rmic):
//
//	type TranslatorStub struct {
//	    Translate func(ctx context.Context, v *WordVector, lang string) (int, error)
//	}
//	var stub TranslatorStub
//	client.BindStruct(addr, "translator", &stub)
//	n, err := stub.Translate(ctx, vec, "de")   // a typed remote call
//
// Each func field must:
//
//   - be named after the remote method;
//   - optionally take a context.Context as its first parameter (a
//     background context is used otherwise);
//   - declare an error as its last result, carrying remote failures.
//
// Register types first: like Server.Export, BindStruct refuses a field
// whose parameters or results reach a type the client's registry does not
// bind, or a kind no value can be coded by.
//
// Results are converted from the wire with the same strictness as server
// dispatch: a type mismatch is an error, not a panic.
func (c *Client) BindStruct(addr, object string, target any) error {
	tv := reflect.ValueOf(target)
	if !tv.IsValid() || tv.Kind() != reflect.Ptr || tv.IsNil() || tv.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("rmi: BindStruct target must be a non-nil pointer to struct, got %T", target)
	}
	sv := tv.Elem()
	st := sv.Type()
	stub := c.Stub(addr, object)
	bound := 0
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Func {
			continue
		}
		if !f.IsExported() {
			return fmt.Errorf("rmi: BindStruct field %s.%s must be exported", st, f.Name)
		}
		fn, err := makeStubFunc(stub, f.Name, f.Type)
		if err == nil {
			err = c.opts.checkSignature(f.Type)
		}
		if err != nil {
			return fmt.Errorf("rmi: BindStruct(%q) field %s.%s: %w", object, st, f.Name, err)
		}
		sv.Field(i).Set(fn)
		bound++
	}
	if bound == 0 {
		return fmt.Errorf("rmi: BindStruct target %s has no func fields", st)
	}
	return nil
}

// checkSignature holds the parameter and result types of ft to the
// endpoint's registry and access mode (wire.Registry.CheckType), as rmic
// held a remote interface: before any call. Interface slots (a leading
// context.Context, a trailing error) stay dynamic, and semOf's by-reference
// types travel as a RemoteRef.
func (o Options) checkSignature(ft reflect.Type) error {
	slots := make([]reflect.Type, 0, ft.NumIn()+ft.NumOut())
	for i := 0; i < ft.NumIn(); i++ {
		slots = append(slots, ft.In(i))
	}
	for i := 0; i < ft.NumOut(); i++ {
		slots = append(slots, ft.Out(i))
	}
	for _, t := range slots {
		if t.Kind() == reflect.Interface || semOf(reflect.Zero(t).Interface()) == semRef {
			continue
		}
		if err := o.registryOf().CheckType(t, o.Core.Access); err != nil {
			return err
		}
	}
	return nil
}

var ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()

// makeStubFunc builds one typed remote-call function.
func makeStubFunc(stub *Stub, method string, ft reflect.Type) (reflect.Value, error) {
	if ft.IsVariadic() {
		return reflect.Value{}, fmt.Errorf("variadic stubs are not supported")
	}
	nOut := ft.NumOut()
	if nOut == 0 || ft.Out(nOut-1) != errType {
		return reflect.Value{}, fmt.Errorf("last result must be error")
	}
	takesCtx := ft.NumIn() > 0 && ft.In(0) == ctxType

	return reflect.MakeFunc(ft, func(in []reflect.Value) []reflect.Value {
		ctx := context.Background()
		args := in
		if takesCtx {
			ctx = in[0].Interface().(context.Context)
			args = in[1:]
		}
		callArgs := make([]any, len(args))
		for i, a := range args {
			callArgs[i] = a.Interface() // a nil interface argument is nil
		}
		out := make([]reflect.Value, nOut)
		for i := 0; i < nOut-1; i++ {
			out[i] = reflect.Zero(ft.Out(i))
		}
		fail := func(err error) []reflect.Value {
			out[nOut-1] = reflect.ValueOf(&err).Elem()
			return out
		}
		rets, err := stub.Call(ctx, method, callArgs...)
		if err != nil {
			return fail(err)
		}
		if len(rets) != nOut-1 {
			return fail(fmt.Errorf("rmi: %s returned %d values, stub expects %d", method, len(rets), nOut-1))
		}
		for i, r := range rets {
			rv, err := convertArg(r, ft.Out(i))
			if err != nil {
				return fail(fmt.Errorf("rmi: %s result %d: %w", method, i, err))
			}
			out[i] = rv
		}
		out[nOut-1] = reflect.Zero(errType)
		return out
	}), nil
}
