package core

// IncrementalIndexer is the name the maintenance contract had while only
// some methods implemented it. Every Method now maintains its index, so a
// type assertion to it always succeeds.
//
// Deprecated: use Method.
type IncrementalIndexer = Method
