package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// keepAwakeArg is the hidden first argument that turns this binary into a
// keep-awake child.
const keepAwakeArg = "-keep-awake-child"

// The scheduling classes a keep-awake child may end up in, as it reports
// them and as the environment block records them.
const (
	classIdle = "idle"   // SCHED_IDLE
	classNice = "nice19" // SCHED_OTHER at the weakest nice level
)

// startKeepAwake starts n child processes that busy-loop at the lowest
// scheduling class the kernel grants, and returns the function that kills
// them and waits for them to end, and the class they run in — the weaker
// one if they differ. A child that could not demote itself at all exits
// instead of spinning, and the run fails: spinners at normal priority would
// take the cores from the program under test.
//
// They exist because of the host this benchmark is sized for. On a
// 2-vCPU virtual machine a vCPU with nothing runnable halts, and waking a
// halted vCPU takes 50–100 µs of hypervisor work — more than a whole
// node-hit batch, paid at every hop of a request whenever load is light
// enough that a core goes idle. Measured here on cluster-r2, whose two
// workers mostly wait: 45k GET/s with a 70% run-to-run spread without
// the children, 86k GET/s with a 10% spread with them. A SCHED_IDLE
// spinner runs only when its core would otherwise halt and is preempted
// the moment anything else is runnable, so it takes nothing from the
// program under test; it stands in for a host whose cores do not sleep.
// The children are separate processes so that their CPU time is not in
// the getrusage of the processes that measure, which is what
// cpu_us_per_get reads.
func startKeepAwake(n int) (stop func(), class string, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait() // reaps the child; the kill is the expected cause of its exit
		}
	}
	class = classIdle
	for i := 0; i < n; i++ {
		c := exec.Command(self, keepAwakeArg)
		c.Stderr = os.Stderr
		// The child dies with this process even if stop never runs.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			stop()
			return nil, "", fmt.Errorf("keep-awake child: %w", err)
		}
		cmds = append(cmds, c)
		line, _ := bufio.NewReader(out).ReadString('\n')
		switch got := strings.TrimSpace(line); got {
		case classIdle:
		case classNice:
			class = classNice
		default:
			stop()
			return nil, "", fmt.Errorf("keep-awake child could not lower its scheduling class (answered %q)", got)
		}
	}
	return stop, class, nil
}

// keepAwakeChild never returns: it drops to SCHED_IDLE or, where that is
// refused, to the weakest nice level, says which on its standard output,
// and spins on one thread. Refused both, it exits.
func keepAwakeChild() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	class := classIdle
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		class = classNice
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			fmt.Fprintf(os.Stderr, "bench: keep-awake child: SCHED_IDLE: %v; nice 19: %v\n", errno, err)
			os.Exit(1)
		}
	}
	fmt.Println(class)
	for {
	}
}
