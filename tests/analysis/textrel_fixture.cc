// A real binary with text relocations, the expected-failure input of the
// tool_lint_check_binary_textrel ctest: an absolute address in a read-only
// section of a PIE needs a load-time relocation, so the linker marks the
// binary DT_TEXTREL (linked with -z notext, which asks for exactly that
// without a warning). It carries no wrpkru, so the only finding
// `pkrusafe_lint check-binary` can report is text-relocation. Never run.
int main() {
  __asm__ volatile(
      ".pushsection .textrel_fixture,\"a\",@progbits\n\t"
      ".quad 1f\n\t"
      ".popsection\n"
      "1:\n\t"
      "nop");
  return 0;
}
