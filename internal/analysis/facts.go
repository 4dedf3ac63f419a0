package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
)

// A Fact is a serializable statement an analyzer proves about a
// function, keyed by the function's stable full name so that facts
// exported while analyzing one package can be imported by analyzers
// running later (in topological import order) on its dependents.
// Facts must round-trip through JSON: the driver can dump the whole
// store for debugging, and the golden tests pin the schema.
type Fact interface {
	// FactName distinguishes fact kinds on one function. Each
	// analyzer should namespace its facts (e.g. "allocguard.result").
	FactName() string
}

// factTypes maps fact names to constructors so a serialized store can
// be decoded back into concrete fact values.
var factTypes = map[string]func() Fact{}

// RegisterFactType makes a fact kind decodable. Call from the owning
// analyzer's init. Duplicate names panic, mirroring Register.
func RegisterFactType(fresh func() Fact) {
	name := fresh().FactName()
	if _, dup := factTypes[name]; dup {
		panic("analysis: duplicate fact type " + name)
	}
	factTypes[name] = fresh
}

// FuncKey is the stable identity of a function across type-check
// units. Distinct units re-check the same import path into distinct
// *types.Package instances, so object pointers do not compare across
// packages; the qualified full name (with generic instantiations
// folded to their origin) does.
func FuncKey(f *types.Func) string {
	if o := f.Origin(); o != nil {
		f = o
	}
	return f.FullName()
}

// FactStore holds every exported fact for one driver run, keyed by
// FuncKey then fact name.
type FactStore struct {
	m map[string]map[string]Fact

	// journal, when non-nil, receives every export/delete in order.
	// The incremental driver points it at the current unit's op list
	// so the unit's fact activity can be replayed from cache.
	journal *[]factOp
}

// factOp is one journaled store mutation.
type factOp struct {
	Del  bool            `json:"del,omitempty"`
	Key  string          `json:"func"`
	Name string          `json:"fact"`
	Data json.RawMessage `json:"data,omitempty"`
}

// setJournal directs subsequent ops into dst (nil stops recording).
func (s *FactStore) setJournal(dst *[]factOp) { s.journal = dst }

// replayOps applies a journaled op sequence, decoding facts through
// the registered constructors.
func (s *FactStore) replayOps(ops []factOp) error {
	for _, op := range ops {
		if op.Del {
			s.DeleteKey(op.Key, op.Name)
			continue
		}
		fresh, ok := factTypes[op.Name]
		if !ok {
			return fmt.Errorf("unregistered fact type %q", op.Name)
		}
		fact := fresh()
		if err := json.Unmarshal(op.Data, fact); err != nil {
			return fmt.Errorf("fact %s on %s: %w", op.Name, op.Key, err)
		}
		s.ExportKey(op.Key, fact)
	}
	return nil
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[string]map[string]Fact{}}
}

// ExportKey records a fact for the function with the given key,
// replacing any previous fact of the same kind (analyzers re-export
// on every fixpoint round).
func (s *FactStore) ExportKey(key string, fact Fact) {
	if s.m[key] == nil {
		s.m[key] = map[string]Fact{}
	}
	s.m[key][fact.FactName()] = fact
	if s.journal != nil {
		data, err := json.Marshal(fact)
		if err != nil {
			data = nil
		}
		*s.journal = append(*s.journal, factOp{Key: key, Name: fact.FactName(), Data: data})
	}
}

// Export records a fact for fn.
func (s *FactStore) Export(fn *types.Func, fact Fact) {
	s.ExportKey(FuncKey(fn), fact)
}

// ImportKey retrieves a fact by function key and fact name.
func (s *FactStore) ImportKey(key, name string) (Fact, bool) {
	f, ok := s.m[key][name]
	return f, ok
}

// Import retrieves a fact for fn.
func (s *FactStore) Import(fn *types.Func, name string) (Fact, bool) {
	if fn == nil {
		return nil, false
	}
	return s.ImportKey(FuncKey(fn), name)
}

// DeleteKey removes one fact kind from a function, used when a
// fixpoint round withdraws a previously exported summary.
func (s *FactStore) DeleteKey(key, name string) {
	delete(s.m[key], name)
	if s.journal != nil {
		*s.journal = append(*s.journal, factOp{Del: true, Key: key, Name: name})
	}
}

// Len counts stored facts.
func (s *FactStore) Len() int {
	n := 0
	for _, facts := range s.m {
		n += len(facts)
	}
	return n
}

// serializedFact is the JSON shape of one (function, fact) pair.
type serializedFact struct {
	Func string          `json:"func"`
	Name string          `json:"fact"`
	Data json.RawMessage `json:"data"`
}

// MarshalJSON renders the store as a deterministic array sorted by
// (function key, fact name).
func (s *FactStore) MarshalJSON() ([]byte, error) {
	var out []serializedFact
	for key, facts := range s.m {
		for name, fact := range facts {
			data, err := json.Marshal(fact)
			if err != nil {
				return nil, fmt.Errorf("fact %s on %s: %w", name, key, err)
			}
			out = append(out, serializedFact{Func: key, Name: name, Data: data})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Name < out[j].Name
	})
	return json.Marshal(out)
}

// UnmarshalJSON rebuilds a store from MarshalJSON output using the
// registered fact constructors.
func (s *FactStore) UnmarshalJSON(data []byte) error {
	var in []serializedFact
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.m = map[string]map[string]Fact{}
	for _, sf := range in {
		fresh, ok := factTypes[sf.Name]
		if !ok {
			return fmt.Errorf("unregistered fact type %q", sf.Name)
		}
		fact := fresh()
		if err := json.Unmarshal(sf.Data, fact); err != nil {
			return fmt.Errorf("fact %s on %s: %w", sf.Name, sf.Func, err)
		}
		s.ExportKey(sf.Func, fact)
	}
	return nil
}

// maxSummaryRounds bounds summarize. A unit settles within about its
// longest intra-package call chain; the bound only stops a summary
// that never settles.
const maxSummaryRounds = 100

// summarize recomputes every target's summary facts, with the facts
// of the previous round visible, until a round changes none. step
// exports one target's facts and reports whether any changed.
// Cross-package facts are final already, since units run in
// topological order; the rounds settle intra-package call chains,
// whatever their declaration order, and recursion.
func summarize(targets []declTarget, step func(declTarget) bool) {
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, t := range targets {
			if step(t) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// exportOrWithdraw reconciles one fact slot against the store and
// reports whether the stored state changed.
func exportOrWithdraw(facts *FactStore, key string, present bool, fact Fact) bool {
	prev, had := facts.ImportKey(key, fact.FactName())
	if !present {
		if had {
			facts.DeleteKey(key, fact.FactName())
			return true
		}
		return false
	}
	if had && fmt.Sprintf("%+v", prev) == fmt.Sprintf("%+v", fact) {
		return false
	}
	facts.ExportKey(key, fact)
	return true
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
