// Command deadmain is the fixture module's only entry point: what it
// reaches in package deadcode is live, everything else is dead.
package main

import "fix/deadcode"

func main() { deadcode.Entry() }
