package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a datum one analyzer attaches to an object while
// analyzing it, for consumption when the same analyzer later runs on an
// importing package. Facts make whole-program analyses possible under the
// one-package-at-a-time driver: a bottom-up pass over the import DAG sees
// every dependency's facts before the dependent package is analyzed.
//
// Fact values must be pointers to structs. Unlike golang.org/x/tools, facts
// are kept in memory for the life of one Runner rather than serialized, so
// they may carry any Go value — but analyzers should still restrict
// themselves to plain data, since a fact outlives the Pass that produced it.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factStore holds the facts of every analyzer across one Runner's lifetime.
type factStore struct {
	obj map[objFactKey]Fact
}

type objFactKey struct {
	a   *Analyzer
	obj types.Object
	t   reflect.Type
}

func newFactStore() *factStore {
	return &factStore{
		obj: make(map[objFactKey]Fact),
	}
}

func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	return t
}

// ExportObjectFact associates fact with obj for later ImportObjectFact calls
// by the same analyzer, from this or an importing package. Exporting twice
// for the same (object, fact type) overwrites.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: ExportObjectFact(nil, ...)")
	}
	p.facts.obj[objFactKey{p.Analyzer, obj, factType(fact)}] = fact
}

// ImportObjectFact copies into fact the fact of the same concrete type
// previously exported for obj, reporting whether one was found. fact must be
// a pointer to the zero value of the sought type.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	stored, ok := p.facts.obj[objFactKey{p.Analyzer, obj, factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
