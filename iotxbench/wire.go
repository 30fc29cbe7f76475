package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"odh"
	"odh/internal/server"
)

// node is one single-node historian served on an ephemeral loopback port.
type node struct {
	h    *odh.Historian
	srv  *server.Server
	addr string
}

func openNode(dir string, opts odh.Options) (*node, error) {
	h, err := odh.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	srv := server.New(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	return &node{h: h, srv: srv, addr: addr.String()}, nil
}

// close drains the server, then closes the historian.
func (n *node) close() error {
	serr := n.srv.Close()
	if err := n.h.Close(); err != nil {
		return err
	}
	return serr
}

// replyError is an ERR line from the server: a failed operation, not a
// broken connection.
type replyError struct{ msg string }

func (e *replyError) Error() string { return "server: " + e.msg }

// wire is one protocol-v2 client connection.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dial(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &wire{conn: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)}
	line, err := cl.command("HELLO 2")
	if err != nil {
		c.Close()
		return nil, err
	}
	if line != "HELLO 2" {
		c.Close()
		return nil, fmt.Errorf("HELLO 2 answered %q", line)
	}
	return cl, nil
}

func (c *wire) close() {
	fmt.Fprintln(c.w, "QUIT")
	c.w.Flush()
	c.conn.Close()
}

// readLine returns one reply line without its terminator and the bytes it
// took on the wire.
func (c *wire) readLine() (string, int, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", len(s), fmt.Errorf("reading reply: %w", err)
	}
	return strings.TrimRight(s, "\r\n"), len(s), nil
}

// command sends one text command and returns its one-line reply.
func (c *wire) command(cmd string) (string, error) {
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	line, _, err := c.readLine()
	return line, err
}

// flush sends FLUSH and waits for its OK.
func (c *wire) flush() error {
	line, err := c.command("FLUSH")
	if err != nil {
		return err
	}
	if line != "OK" {
		return &replyError{line}
	}
	return nil
}

// batch sends one BATCH frame and waits for its acknowledgement.
func (c *wire) batch(payload []byte, points int) error {
	fmt.Fprintf(c.w, "BATCH %d\n", len(payload))
	c.w.Write(payload)
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, _, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "OK "+strconv.Itoa(points) {
		return &replyError{line}
	}
	return nil
}

// reply is one SQL result as the client received it. Rows are kept up
// to keptRows; counts cover every row.
type reply struct {
	cols    []string
	rows    [][]string
	nrows   int
	nonNull []int // per column, cells that are not NULL
	bytes   int
	sums    map[string]float64 // per column, set by compact
}

// keptRows bounds the rows a reply keeps for checking; every checked
// answer stays below it, and larger ones are counted, not kept.
const keptRows = 4096

// addRow counts one row and keeps it while the reply is small.
func (r *reply) addRow(cells []string) {
	r.nrows++
	for j, c := range cells {
		if j < len(r.nonNull) && c != "NULL" {
			r.nonNull[j]++
		}
	}
	if r.nrows <= keptRows {
		r.rows = append(r.rows, cells)
	}
}

// addLine counts one tab-separated row line without splitting it unless
// the row is kept.
func (r *reply) addLine(line []byte) {
	if r.nrows < keptRows {
		r.addRow(strings.Split(string(line), "\t"))
		return
	}
	r.nrows++
	for j := 0; ; j++ {
		cell, rest, more := bytes.Cut(line, []byte{'\t'})
		if j < len(r.nonNull) && string(cell) != "NULL" {
			r.nonNull[j]++
		}
		if !more {
			return
		}
		line = rest
	}
}

// sql runs one statement and reads its full result.
func (c *wire) sql(stmt string) (*reply, error) {
	c.w.WriteString("SQL ")
	c.w.WriteString(stmt)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	rep := &reply{}
	line, n, err := c.readLine()
	rep.bytes += n
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(line, "ERR") {
		return nil, &replyError{line}
	}
	if strings.HasPrefix(line, "OK ") {
		return rep, nil // DDL or DML
	}
	rep.cols = strings.Split(line, "\t")
	rep.nonNull = make([]int, len(rep.cols))
	for {
		b, err := c.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			rest, rerr := c.r.ReadBytes('\n')
			b, err = append(append([]byte(nil), b...), rest...), rerr
		}
		rep.bytes += len(b)
		if err != nil {
			return nil, fmt.Errorf("reading reply: %w", err)
		}
		b = bytes.TrimRight(b, "\r\n")
		switch {
		case bytes.HasPrefix(b, []byte("ERR")):
			return nil, &replyError{string(b)}
		case bytes.HasPrefix(b, []byte("OK ")):
			if string(b) != "OK "+strconv.Itoa(rep.nrows) {
				return nil, fmt.Errorf("result of %d rows ended with %q", rep.nrows, b)
			}
			return rep, nil
		}
		rep.addLine(b)
	}
}

// keyColumns are result columns that identify a row rather than carry a
// measured value; dataPoints skips them.
var keyColumns = map[string]bool{
	"T_CA_ID": true, "T_DTS": true, "SensorId": true, "Timestamp": true,
	"CA_NAME": true, "SensorName": true,
}

// dataPoints counts the non-NULL value cells of a result (Table 8's
// unit): tag values and aggregates, not ids, timestamps or bucket keys.
func (r *reply) dataPoints() int64 {
	var n int64
	for j, col := range r.cols {
		if !keyColumns[col] && !strings.HasPrefix(strings.ToUpper(col), "TIME_BUCKET") {
			n += int64(r.nonNull[j])
		}
	}
	return n
}

// column returns the index of the named column, or -1.
func (r *reply) column(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// compact sums each column over the kept rows, then drops the rows of
// all but small answers, so answers kept for checking stay small.
func (r *reply) compact() *reply {
	r.sums = map[string]float64{}
	for j, c := range r.cols {
		for _, row := range r.rows {
			if v, err := strconv.ParseFloat(row[j], 64); err == nil {
				r.sums[c] += v
			}
		}
	}
	if len(r.rows) > smallRows {
		r.rows = nil
	}
	return r
}

// smallRows is the largest answer compact keeps whole: every aggregate
// shape returns fewer rows.
const smallRows = 64

// nonNullOf returns a column's non-NULL cell count, or -1 without it.
func (r *reply) nonNullOf(name string) int {
	if j := r.column(name); j >= 0 {
		return r.nonNull[j]
	}
	return -1
}
