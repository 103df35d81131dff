package main

import (
	"testing"

	"repro/internal/policy"
)

// TestDefaultPolicyIsNative pins the daemon to the store path the standing
// benchmark measures: the default -policy hands concurrent.New no factory,
// so its buckets order themselves (internal/concurrent's tests hold that a
// nil Config.Policy builds no policy object), and every other kind still
// gets one.
func TestDefaultPolicyIsNative(t *testing.T) {
	for _, kind := range policy.AllKinds() {
		name := kind.String()
		parsed, err := policy.ParseKind(name)
		if err != nil || parsed != kind {
			t.Fatalf("ParseKind(%q) = %v, %v", name, parsed, err)
		}
		f := policy.BucketFactory(parsed, 1)
		if native := name == defaultPolicy; (f == nil) != native {
			t.Errorf("-policy %s: factory nil = %v, want %v", name, f == nil, native)
		}
		if f != nil && f(16).Capacity() != 16 {
			t.Errorf("-policy %s: factory builds capacity %d, want 16", name, f(16).Capacity())
		}
	}
}
