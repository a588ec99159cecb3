package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procStatus reads one numeric field of /proc/<pid>/status ("VmHWM",
// "Threads", …); pid "self" reads this process. Sizes are in kB.
func procStatus(pid, field string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		v, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		return strconv.ParseInt(v, 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// procCPU is the user+system CPU time a process has used.
func procCPU(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ")".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: too few fields", pid)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatus(pid, "VmHWM")
	return float64(kb) / 1024, err
}
