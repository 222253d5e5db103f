// A byte encoding of CompiledProgram, for stores that keep compiled scripts
// outside the Vm (the runtime's compiled-script cache).
//
// The encoding is for one process only: fields are written in host byte
// order and the format carries no version. DecodeProgram bounds-checks every
// read, so a truncated or foreign blob fails with an error rather than
// reading past its end, and DecodeProgram(EncodeProgram(p)) == p for every
// program the compiler can produce.
#ifndef SRC_JSVM_PROGRAM_CODEC_H_
#define SRC_JSVM_PROGRAM_CODEC_H_

#include <string>
#include <string_view>

#include "src/jsvm/bytecode.h"
#include "src/support/status.h"

namespace pkrusafe {

std::string EncodeProgram(const CompiledProgram& program);

Result<CompiledProgram> DecodeProgram(std::string_view bytes);

}  // namespace pkrusafe

#endif  // SRC_JSVM_PROGRAM_CODEC_H_
