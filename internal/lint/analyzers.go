package lint

// All returns the full subzerolint suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		CtxFlow,
		PoolReturn,
		RecoverCheck,
		WireTag,
	}
}

// ByName resolves one analyzer, accepting either the bare name or the
// "subzero/"-prefixed diagnostic category.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name || "subzero/"+a.Name == name {
			return a
		}
	}
	return nil
}
