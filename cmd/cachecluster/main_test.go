package main

import (
	"flag"
	"io"
	"strings"
	"testing"
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
		{[]string{"-addrs", "127.0.0.1:7070", "-workload", "adversarial"}, ""},
		{[]string{"-spawn", "3", "-replicas", "2", "-trace", "w.satr", "-trace-sample", "8"}, ""},
		{[]string{"-addrs", "h1:7070", "-bootstrap", "-replicas", "3"}, ""},
		{nil, "-spawn N or -addrs"},
		{[]string{"-spawn", "-1"}, "-spawn"},
		{[]string{"-spawn", "2", "-addrs", "h1:7070"}, "mutually exclusive"},
		{[]string{"-spawn", "2", "-bootstrap"}, "-bootstrap"},
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
		{[]string{"-spawn", "2", "-ops", "0"}, "-ops 0"},
		{[]string{"-spawn", "2", "-pipeline", "-1"}, "-pipeline -1"},
		{[]string{"-spawn", "2", "-valsize", "4"}, "-valsize 4"},
		{[]string{"-spawn", "2", "-universe", "0"}, "-universe 0"},
		{[]string{"-spawn", "2", "-open", "-rate", "1000", "-duration", "-1s"}, "-duration -1s"},
		{[]string{"-spawn", "2", "-open"}, "-open requires -rate"},
		{[]string{"-spawn", "2", "-duration", "1s"}, "-duration is only meaningful"},
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

// TestPolicyFlagRetired holds the command line to the flags it still has.
// A retired flag fails to parse instead of being quietly ignored: -policy,
// because the spawned stores have one replacement policy, and -rehash,
// because a node rehashes on its own miss-count schedule only (wire v16
// has no REHASH).
func TestPolicyFlagRetired(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "clock"},
		{"-rehash"},
	} {
		fs := flag.NewFlagSet("cachecluster", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs)
		err := fs.Parse(append([]string{"-spawn", "2"}, args...))
		if err == nil || !strings.Contains(err.Error(), "not defined: "+args[0]) {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}
