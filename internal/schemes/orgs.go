package schemes

import (
	"fmt"

	"pair/internal/dram"
	"pair/internal/registry"
)

// OrgEntry is one registered DRAM organization a spec can name.
type OrgEntry struct {
	ID          string
	Description string
	Org         dram.Organization
}

var orgReg = registry.New[*OrgEntry]("schemes", "organization")

// registerOrg adds an organization to the registry; like register it
// panics on a malformed entry, since it runs from init functions.
func registerOrg(e OrgEntry) {
	if err := e.Org.Validate(); err != nil {
		panic(fmt.Sprintf("schemes: organization %q: %v", e.ID, err))
	}
	orgReg.Add(e.ID, &e)
}
