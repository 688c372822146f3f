package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"

	"repro/internal/wire"
)

// The client half of storeserve: a one-shot RESP command runner (-cli),
// so clusters can be smoked on hosts without redis-cli. Load generation
// and performance numbers live in benchmark/.

// runCLI sends one command and prints the reply, redis-cli style.
func runCLI(addr string, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: storeserve -cli -addr host:port COMMAND [args...]")
		return 2
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer conn.Close()
	w := wire.NewRESPWriter(conn)
	w.Array(len(args))
	for _, a := range args {
		w.BulkString(a)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r := bufio.NewReader(conn)
	out, isErr, err := readReply(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(out)
	if isErr {
		return 1
	}
	return 0
}

// readReply parses one RESP2 reply and renders it as text.
func readReply(r *bufio.Reader) (string, bool, error) {
	t, err := r.ReadByte()
	if err != nil {
		return "", false, err
	}
	line, err := readLine(r)
	if err != nil {
		return "", false, err
	}
	switch t {
	case '+':
		return line, false, nil
	case '-':
		return "(error) " + line, true, nil
	case ':':
		return "(integer) " + line, false, nil
	case '$':
		n, err := strconv.Atoi(line)
		if err != nil {
			return "", false, err
		}
		if n < 0 {
			return "(nil)", false, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", false, err
		}
		return string(buf[:n]), false, nil
	case '*':
		n, err := strconv.Atoi(line)
		if err != nil {
			return "", false, err
		}
		if n < 0 {
			return "(nil)", false, nil
		}
		out := ""
		for i := 0; i < n; i++ {
			item, _, err := readReply(r)
			if err != nil {
				return "", false, err
			}
			if i > 0 {
				out += "\n"
			}
			out += fmt.Sprintf("%d) %s", i+1, item)
		}
		if n == 0 {
			out = "(empty array)"
		}
		return out, false, nil
	}
	return "", false, fmt.Errorf("bad reply type %q", t)
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("malformed reply line")
	}
	return line[:len(line)-2], nil
}
