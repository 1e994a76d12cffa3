package multicore

import (
	"fmt"
	"strconv"
	"strings"
)

// Floorplan maps co-running cores onto the nodes of a Rows×Cols spatial
// grid: core i's activity feeds the supply/thermal node Nodes[i]. Several
// cores may share a node (their traces are summed there) and nodes may be
// empty (idle die regions). The same floorplan drives both the spatial
// supply and thermal grids.
type Floorplan struct {
	// Rows and Cols are the grid dimensions; nodes are indexed row-major
	// (node = row*Cols + col).
	Rows, Cols int
	// Nodes[i] is the row-major node index core i maps onto.
	Nodes []int
}

// DefaultGrid is the spatial grid a chip of the given core count gets when
// no dimensions are asked for: the smallest near-square grid with at least
// one node per core (1x2 for 2 cores, 2x2 for 4, 2x3 for 5). A core count
// below 1 counts as 1.
func DefaultGrid(cores int) (rows, cols int) {
	if cores < 1 {
		cores = 1
	}
	rows = 1
	for rows*rows < cores {
		rows++
	}
	if rows*(rows-1) >= cores {
		return rows - 1, rows
	}
	return rows, rows
}

// DefaultFloorplan spreads cores over a rows×cols grid round-robin in
// row-major order: core i sits at node i mod (rows·cols). With at least as
// many nodes as cores every core gets its own region. Degenerate dimensions
// yield an all-zero placement that Validate rejects (WithGrid defers all
// dimension checking to Validate).
func DefaultFloorplan(rows, cols, cores int) Floorplan {
	fp := Floorplan{Rows: rows, Cols: cols, Nodes: make([]int, cores)}
	if rows < 1 || cols < 1 {
		return fp
	}
	for i := range fp.Nodes {
		fp.Nodes[i] = i % (rows * cols)
	}
	return fp
}

// ParseFloorplan parses the cmd/mgbench -floorplan syntax: one
// "row,col" coordinate per core, semicolon-separated ("0,0;0,1;1,0;1,1"),
// onto a rows×cols grid.
func ParseFloorplan(s string, rows, cols int) (Floorplan, error) {
	fp := Floorplan{Rows: rows, Cols: cols}
	for i, part := range strings.Split(s, ";") {
		rc := strings.Split(strings.TrimSpace(part), ",")
		if len(rc) != 2 {
			return Floorplan{}, fmt.Errorf("multicore: floorplan entry %d %q is not a row,col pair", i, part)
		}
		r, err := strconv.Atoi(strings.TrimSpace(rc[0]))
		if err != nil {
			return Floorplan{}, fmt.Errorf("multicore: floorplan entry %d row: %w", i, err)
		}
		c, err := strconv.Atoi(strings.TrimSpace(rc[1]))
		if err != nil {
			return Floorplan{}, fmt.Errorf("multicore: floorplan entry %d col: %w", i, err)
		}
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return Floorplan{}, fmt.Errorf("multicore: floorplan entry %d (%d,%d) outside the %dx%d grid", i, r, c, rows, cols)
		}
		fp.Nodes = append(fp.Nodes, r*cols+c)
	}
	return fp, nil
}

// NodeCount returns the grid's node count.
func (f Floorplan) NodeCount() int { return f.Rows * f.Cols }

// String renders the floorplan in the ParseFloorplan syntax.
func (f Floorplan) String() string {
	parts := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		parts[i] = fmt.Sprintf("%d,%d", n/f.Cols, n%f.Cols)
	}
	return strings.Join(parts, ";")
}

// Validate checks the grid dimensions, that there is one node per core and
// that every node index is on the grid.
func (f Floorplan) Validate(cores int) error {
	if f.Rows < 1 || f.Cols < 1 {
		return fmt.Errorf("multicore: floorplan needs at least a 1x1 grid (got %dx%d)", f.Rows, f.Cols)
	}
	if len(f.Nodes) != cores {
		return fmt.Errorf("multicore: floorplan places %d cores but the chip has %d", len(f.Nodes), cores)
	}
	for i, n := range f.Nodes {
		if n < 0 || n >= f.NodeCount() {
			return fmt.Errorf("multicore: floorplan places core %d at node %d, outside the %dx%d grid", i, n, f.Rows, f.Cols)
		}
	}
	return nil
}
