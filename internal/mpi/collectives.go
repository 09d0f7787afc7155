package mpi

import "fmt"

// Additional collective operations beyond the four the paper's CFD study
// measures, completing the common MPI collective set. All are recorded
// under the collective activity and follow the same tree cost model.

// Gather collects bytes from every rank at a root: a reduce-shaped tree
// whose data volume grows toward the root. Each rank contributes bytes;
// the cost charges the root's total receive volume spread over the tree
// stages.
func (c *Comm) Gather(root, bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadArgument, root)
	}
	p := c.Size()
	cost := stages(p)*c.world.cost.CollectiveLatency + float64(p-1)*c.world.cost.transfer(bytes)
	c.addBytes(ActCollective, bytes)
	_, err := c.collective("gather", ActCollective, cost, 0)
	return err
}

// Scatter distributes bytes from a root to every rank: the mirror image
// of Gather.
func (c *Comm) Scatter(root, bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadArgument, root)
	}
	p := c.Size()
	cost := stages(p)*c.world.cost.CollectiveLatency + float64(p-1)*c.world.cost.transfer(bytes)
	c.addBytes(ActCollective, bytes)
	_, err := c.collective("scatter", ActCollective, cost, 0)
	return err
}

// Allgather collects bytes from every rank at every rank: a gather
// followed by a broadcast of the concatenation (ring or recursive
// doubling; the cost model charges the ring's (P-1) exchange steps).
func (c *Comm) Allgather(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	p := c.Size()
	cost := float64(p-1) * (c.world.cost.Latency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, p*bytes)
	_, err := c.collective("allgather", ActCollective, cost, 0)
	return err
}

// AllgatherValues is Allgather carrying one float64 of application data
// per rank: it returns the full per-rank vector, indexed by rank. This is
// the primitive adaptive rebalancing uses to share per-rank load
// measurements at a phase boundary.
func (c *Comm) AllgatherValues(value float64, bytes int) ([]float64, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	p := c.Size()
	cost := float64(p-1) * (c.world.cost.Latency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, p*bytes)
	res, err := c.collectiveFull("allgather", ActCollective, cost, value)
	if err != nil {
		return nil, err
	}
	return res.Values(), nil
}
