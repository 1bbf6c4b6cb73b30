// Package core implements the paper's primary contribution: {ε,G}-location
// privacy (PGLP, Def. 2.4) as an executable engine. It states a policy as
// a privacy level paired with a location policy graph, decides policy
// feasibility under adversarial knowledge, repairs infeasible policies,
// and verifies — analytically, from mechanism likelihoods — that a
// mechanism satisfies a policy, including the paper's Theorems 2.1 and
// 2.2.
package core
