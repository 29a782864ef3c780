// Package forest implements a distributed forest of octrees in the style of
// p4est: multiple octrees connected into a macro-mesh, leaves stored in
// space-filling-curve order, partitioned across ranks of a comm.World, with
// refinement, coarsening, repartitioning, and the paper's one-pass parallel
// 2:1 balance in both the old and the new variant.
//
// Connectivity is restricted to "brick" macro-meshes: an nx × ny (× nz)
// grid of unit trees, optionally periodic per axis, optionally with a mask
// that deactivates grid cells to carve irregular domains (used for the
// ice-sheet workload).  Inter-tree coordinate transforms are then pure
// translations, which exercises every multi-tree code path of the balance
// algorithm while avoiding the orientation bookkeeping of fully general
// connectivities (see DESIGN.md for the substitution rationale).
package forest

import (
	"fmt"

	"repro/internal/octant"
)

// Connectivity describes how trees are laid out in a brick grid.
type Connectivity struct {
	dim      int
	n        [3]int // grid extent per axis (n[2] == 1 in 2D)
	periodic [3]bool

	// cellTree maps a raster grid index to a tree id, or -1 if the cell
	// is masked out.  treeCell is the inverse.
	cellTree []int32
	treeCell [][3]int

	// nbrs is the per-tree neighbor table: entry t*nbrCells(dim)+cell is
	// the tree holding root-sized grid cell cell (octant.Key.RootCell
	// numbering) around tree t, and the shift into its frame.
	nbrs []treeNeighbor
}

// treeNeighbor is one neighbor-table entry: the tree occupying a grid cell
// around a tree (-1 outside the domain) and the shift that expresses the
// tree's octants in that neighbor's frame.
type treeNeighbor struct {
	tree  int32
	shift Shift
}

// NewBrick creates a brick connectivity of nx × ny (× nz) unit trees.  In
// 2D, nz must be 1 and periodic[2] false.
func NewBrick(dim, nx, ny, nz int, periodic [3]bool) *Connectivity {
	if dim != 2 && dim != 3 {
		panic("forest: invalid dimension")
	}
	if nx < 1 || ny < 1 || nz < 1 {
		panic("forest: brick extents must be positive")
	}
	if dim == 2 && (nz != 1 || periodic[2]) {
		panic("forest: 2D brick must have nz == 1 and no z periodicity")
	}
	for i := 0; i < dim; i++ {
		ext := []int{nx, ny, nz}[i]
		if periodic[i] && ext < 3 {
			// With fewer than three cells a periodic tree would be its
			// own neighbor (or a neighbor in two directions at once),
			// making inter-tree shifts ambiguous.
			panic("forest: periodic axes require an extent of at least 3 trees")
		}
	}
	c := &Connectivity{dim: dim, n: [3]int{nx, ny, nz}, periodic: periodic}
	c.buildIndex(nil)
	return c
}

// NewMaskedBrick is NewBrick with a mask: only grid cells for which keep
// returns true become trees.  At least one cell must survive.
func NewMaskedBrick(dim, nx, ny, nz int, periodic [3]bool, keep func(x, y, z int) bool) *Connectivity {
	c := NewBrick(dim, nx, ny, nz, periodic)
	c.buildIndex(keep)
	if len(c.treeCell) == 0 {
		panic("forest: mask removed all trees")
	}
	return c
}

func (c *Connectivity) buildIndex(keep func(x, y, z int) bool) {
	c.cellTree = make([]int32, c.n[0]*c.n[1]*c.n[2])
	c.treeCell = c.treeCell[:0]
	id := int32(0)
	for z := 0; z < c.n[2]; z++ {
		for y := 0; y < c.n[1]; y++ {
			for x := 0; x < c.n[0]; x++ {
				i := c.rasterIndex(x, y, z)
				if keep != nil && !keep(x, y, z) {
					c.cellTree[i] = -1
					continue
				}
				c.cellTree[i] = id
				c.treeCell = append(c.treeCell, [3]int{x, y, z})
				id++
			}
		}
	}
	c.buildNeighbors()
}

// nbrCells is the number of root-sized grid cells around and including a
// tree: 3^dim.
func nbrCells(dim int) int {
	if dim == 2 {
		return 9
	}
	return 27
}

// buildNeighbors fills the neighbor table from the grid: for every tree
// and every offset in {-1,0,1}^dim, the tree in the offset cell (wrapping
// periodic axes) and the translation into its frame.
func (c *Connectivity) buildNeighbors() {
	nc := nbrCells(c.dim)
	c.nbrs = make([]treeNeighbor, len(c.treeCell)*nc)
	for t, cell := range c.treeCell {
		for i := 0; i < nc; i++ {
			e := treeNeighbor{tree: -1}
			var ncell [3]int
			ok := true
			for a, rest := 0, i; a < 3; a++ {
				off := 0
				if a < c.dim {
					off = rest%3 - 1
					rest /= 3
				}
				v := cell[a] + off
				if v < 0 || v >= c.n[a] {
					if !c.periodic[a] {
						ok = false
						break
					}
					v = (v + c.n[a]) % c.n[a]
				}
				ncell[a] = v
				e.shift[a] = -int32(off) * octant.RootLen
			}
			if ok {
				e.tree = c.cellTree[c.rasterIndex(ncell[0], ncell[1], ncell[2])]
			}
			c.nbrs[t*nc+i] = e
		}
	}
}

// neighbor returns tree t's neighbor-table entry for grid cell cell.
func (c *Connectivity) neighbor(t int32, cell int) treeNeighbor {
	return c.nbrs[int(t)*nbrCells(c.dim)+cell]
}

func (c *Connectivity) rasterIndex(x, y, z int) int {
	return (z*c.n[1]+y)*c.n[0] + x
}

// Dim returns the dimension of the forest (2 or 3).
func (c *Connectivity) Dim() int { return c.dim }

// NumTrees returns the number of active trees.
func (c *Connectivity) NumTrees() int32 { return int32(len(c.treeCell)) }

// TreeCell returns the grid coordinates of tree t.
func (c *Connectivity) TreeCell(t int32) (x, y, z int) {
	cell := c.treeCell[t]
	return cell[0], cell[1], cell[2]
}

// String describes the connectivity.
func (c *Connectivity) String() string {
	return fmt.Sprintf("brick %dD %dx%dx%d, %d trees", c.dim, c.n[0], c.n[1], c.n[2], c.NumTrees())
}

// Shift is the lattice translation that maps one tree's coordinate frame to
// a neighboring tree's frame.  Applying a Shift to an octant expresses it
// in the neighbor's coordinates.
type Shift [3]int32

// Apply translates o by the shift.
func (s Shift) Apply(o octant.Octant) octant.Octant {
	return o.Translated(s[0], s[1], s[2])
}

// Inverse returns the opposite translation.
func (s Shift) Inverse() Shift { return Shift{-s[0], -s[1], -s[2]} }

// Canonicalize maps an octant that may lie outside its tree's root cube to
// the tree that actually contains it.  If o is inside the root it is
// returned unchanged with a zero shift.  If o lies in a neighboring grid
// cell, the neighbor tree id, the translated octant, and the applied shift
// are returned; the same shift expresses any companion octant of the source
// tree in the neighbor's frame.  ok is false when the octant falls outside
// the domain (past a non-periodic boundary or into a masked-out cell).
//
// Out-of-root octants never straddle the root boundary: their side length
// divides the root length and their corners are grid aligned, so each one
// lies in exactly one grid cell.
func (c *Connectivity) Canonicalize(tree int32, o octant.Octant) (nt int32, no octant.Octant, shift Shift, ok bool) {
	cell, pow := 0, 1
	for i := 0; i < c.dim; i++ {
		off := 1
		switch {
		case o.Coord(i) < 0:
			off = 0
		case o.Coord(i) >= octant.RootLen:
			off = 2
		}
		cell += off * pow
		pow *= 3
	}
	if cell == nbrCells(c.dim)/2 {
		return tree, o, Shift{}, true
	}
	e := c.neighbor(tree, cell)
	if e.tree < 0 {
		return 0, octant.Octant{}, Shift{}, false
	}
	return e.tree, e.shift.Apply(o), e.shift, true
}

// canonicalizeKey is Canonicalize on a packed key within one root length
// of tree's root cube, answered from the neighbor table without unpacking:
// the key's grid cell (octant.Key.RootCell) selects the entry, and the
// translation into the neighbor's frame is the key's RootImage.  cell
// identifies the neighbor for Connectivity.neighbor.
func (c *Connectivity) canonicalizeKey(tree int32, k octant.Key) (nt int32, nk octant.Key, cell int, ok bool) {
	if k.InsideRoot() {
		return tree, k, nbrCells(c.dim) / 2, true
	}
	cell = k.RootCell()
	e := c.neighbor(tree, cell)
	if e.tree < 0 {
		return 0, octant.Key{}, 0, false
	}
	return e.tree, k.RootImage(), cell, true
}
