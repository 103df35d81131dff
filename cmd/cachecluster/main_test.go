package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestValidateFlags holds the command line to its checks before anything
// is spawned: every row names the flag its error must name, and the empty
// string marks a command line that must pass.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spawn", "2"}, ""},
		{[]string{"-addrs", "127.0.0.1:7070", "-workload", "adversarial", "-rehash"}, ""},
		{[]string{"-spawn", "3", "-replicas", "2", "-trace", "w.satr", "-trace-sample", "8"}, ""},
		{[]string{"-addrs", "h1:7070", "-bootstrap", "-replicas", "3"}, ""},
		{nil, "-spawn N or -addrs"},
		{[]string{"-spawn", "-1"}, "-spawn"},
		{[]string{"-spawn", "2", "-addrs", "h1:7070"}, "mutually exclusive"},
		{[]string{"-spawn", "2", "-bootstrap"}, "-bootstrap"},
		{[]string{"-spawn", "2", "-vnodes", "-1"}, "-vnodes"},
		{[]string{"-spawn", "2", "-trace-sample", "-1"}, "-trace-sample"},
		{[]string{"-spawn", "2", "-near-slots", "-1"}, "-near-slots"},
		{[]string{"-spawn", "2", "-near-ttl", "-1s"}, "-near-ttl"},
		{[]string{"-spawn", "2", "-anti-entropy", "-1s"}, "-anti-entropy"},
		{[]string{"-spawn", "2", "-workload", "bogus"}, "-workload"},
		{[]string{"-spawn", "2", "-adv-delta", "0"}, "-adv-delta"},
		{[]string{"-spawn", "2", "-adv-delta", "1"}, "-adv-delta"},
		{[]string{"-spawn", "2", "-adv-sets", "0"}, "-adv-sets"},
		{[]string{"-spawn", "2", "-adv-reps", "0"}, "-adv-reps"},
		{[]string{"-spawn", "2", "-replicas", "3"}, "replica"},
		{[]string{"-spawn", "2", "-conns", "0"}, "-conns"},
		{[]string{"-spawn", "2", "-rate", "1000"}, "-rate"},
	} {
		fs := flag.NewFlagSet("cachecluster", flag.ContinueOnError)
		c := defineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := validateFlags(c)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q does not name %q", tc.args, err, tc.want)
		}
	}
}

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
