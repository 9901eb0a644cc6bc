package xtest

// Hidden exports hidden to the external test package only.
var Hidden = hidden
