// Package policy implements PANDA's Location Policy Configuration module
// (Fig. 3): it recommends the predefined policy graphs of Fig. 4 for each
// surveillance application (Ga for location monitoring, Gb — the same
// construction at a finer block size — for epidemic analysis, Gc for
// contact tracing), versions each user's policy, and performs the dynamic
// policy updates that drive contact tracing ("when the server confirms a
// diagnosed patient's location history, the Policy Graph Configuration
// module will update the location privacy policy of the users who have
// the risk of infection").
package policy
