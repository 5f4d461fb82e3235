package rmi

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// Types the signature rows reach. sigItem is never registered.
type (
	sigItem  struct{ N int }
	sigOuter struct{ Inner sigItem }
	Order    struct {
		ID     int
		Events chan int
	}
	sigKeyed  struct{ M map[uintptr]int }
	sigDeep   struct{ Inner struct{ Hooks []func() } }
	sigHidden struct {
		N    int
		item *sigItem
	}
	// sigHiddenTree's unexported field reaches registered types only.
	sigHiddenTree struct {
		N    int
		tree *RTree
	}
	// sigPeer travels by reference, so its chan never meets the codec.
	sigPeer struct{ C chan int }
)

func (*Order) NRMIRestorable() {}
func (*sigPeer) NRMIRemote()   {}

// One service per row, each with one method.
type (
	takesItem    struct{}
	takesOuter   struct{}
	returnsItem  struct{}
	placesOrder  struct{}
	takesFunc    struct{}
	takesUintptr struct{}
	takesPointer struct{}
	takesKeyed   struct{}
	takesDeep    struct{}
	takesCtx     struct{}
	swapsPeer    struct{}
	takesAny     struct{}
	takesHidden  struct{}
	takesTree    struct{}
	takesRefs    struct{}
)

func (*takesItem) Take(*sigItem) error                       { return nil }
func (*takesOuter) Take(*sigOuter) error                     { return nil }
func (*returnsItem) Get() (sigItem, error)                   { return sigItem{}, nil }
func (*placesOrder) Place(*Order) error                      { return nil }
func (*takesFunc) Take(func()) error                         { return nil }
func (*takesUintptr) Take(uintptr) error                     { return nil }
func (*takesPointer) Take(unsafe.Pointer) error              { return nil }
func (*takesKeyed) Take(sigKeyed) error                      { return nil }
func (*takesDeep) Take(*sigDeep) error                       { return nil }
func (*takesCtx) Take(context.Context, int) error            { return nil }
func (*swapsPeer) Swap(p *sigPeer) (*sigPeer, error)         { return p, nil }
func (*takesAny) Take(any) error                             { return nil }
func (*takesHidden) Take(*sigHidden) error                   { return nil }
func (*takesTree) Take(sigHiddenTree) error                  { return nil }
func (*takesRefs) Take(*RemoteRef, []*CTree) (*RTree, error) { return nil, nil }

// TestExportRefusesWhatNoCallCarries: Export, ExportSerialized and
// BindStruct hold every parameter and result to the endpoint's registry and
// access mode before any call, naming the export, the method and the type
// path. Interface slots, a context and an error among them, and by-reference
// types are not held. An unexported field is, whatever the endpoint's access
// mode: a server decodes a request in the mode its header announces.
func TestExportRefusesWhatNoCallCarries(t *testing.T) {
	for _, row := range []struct {
		svc    any
		method string
		want   error  // nil exports
		path   string // in the error
	}{
		{&takesItem{}, "Take", wire.ErrTypeNotRegistered, "wire: type not registered: rmi.sigItem at *rmi.sigItem"},
		{&takesOuter{}, "Take", wire.ErrTypeNotRegistered, "rmi.sigItem at *rmi.sigOuter.Inner"},
		{&returnsItem{}, "Get", wire.ErrTypeNotRegistered, "wire: type not registered: rmi.sigItem at rmi.sigItem"},
		{&placesOrder{}, "Place", graph.ErrNotSerializable, "*rmi.Order.Events has kind chan (chan int)"},
		{&takesFunc{}, "Take", graph.ErrNotSerializable, "func() has kind func"},
		{&takesUintptr{}, "Take", graph.ErrNotSerializable, "uintptr has kind uintptr"},
		{&takesPointer{}, "Take", graph.ErrNotSerializable, "unsafe.Pointer has kind unsafe.Pointer"},
		{&takesKeyed{}, "Take", graph.ErrNotSerializable, "rmi.sigKeyed.M[key] has kind uintptr"},
		{&takesDeep{}, "Take", graph.ErrNotSerializable, "*rmi.sigDeep.Inner.Hooks has kind func"},
		{&takesCtx{}, "Take", nil, ""},
		{&swapsPeer{}, "Swap", nil, ""},
		{&takesAny{}, "Take", nil, ""},
		{&takesHidden{}, "Take", wire.ErrTypeNotRegistered, "rmi.sigItem at *rmi.sigHidden.item"},
		{&takesTree{}, "Take", nil, ""},
		{&takesRefs{}, "Take", nil, ""},
	} {
		name := reflect.TypeOf(row.svc).Elem().Name()
		t.Run(name, func(t *testing.T) {
			reg := treeRegistry(t)
			for wname, v := range map[string]any{"Outer": sigOuter{}, "Order": Order{}, "Keyed": sigKeyed{}, "Deep": sigDeep{}, "Hidden": sigHidden{}, "HiddenTree": sigHiddenTree{}} {
				if err := reg.Register(wname, v); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Core: core.Options{Registry: reg}}
			srv, err := NewServer("server", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := NewClient(func(string) (net.Conn, error) { return nil, errors.New("no network") }, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// BindStruct's target: one func field, the method without its receiver.
			stub := reflect.New(reflect.StructOf([]reflect.StructField{
				{Name: row.method, Type: reflect.ValueOf(row.svc).Method(0).Type()},
			})).Interface()

			for _, end := range []struct {
				name string
				bind func() error
			}{
				{`Export("svc")`, func() error { return srv.Export("svc", row.svc) }},
				{`Export("ser")`, func() error { return srv.ExportSerialized("ser", row.svc) }},
				{`BindStruct("svc")`, func() error { return cl.BindStruct("server", "svc", stub) }},
			} {
				err := end.bind()
				switch {
				case row.want == nil && err != nil:
					t.Errorf("%s refused: %v", end.name, err)
				case row.want != nil && !errors.Is(err, row.want):
					t.Errorf("%s: %v, want %v", end.name, err, row.want)
				case row.want != nil:
					for _, part := range []string{end.name, row.method, row.path} {
						if !strings.Contains(err.Error(), part) {
							t.Errorf("%s: %q does not name %q", end.name, err, part)
						}
					}
				}
			}
		})
	}
}
