#include "src/analysis/gate_integrity.h"

#include <elf.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "src/support/string_util.h"

namespace pkrusafe {
namespace analysis {

namespace {

struct ExecWindow {
  uint64_t vaddr = 0;
  uint64_t size = 0;
  uint64_t offset = 0;
};

}  // namespace

Result<BinaryGateReport> ScanBinaryGates(const std::string& path) {
  BinaryGateReport report;
  report.path = path;

  PS_ASSIGN_OR_RETURN(report.hits, ScanFile(path));
  for (const GadgetHit& hit : report.hits) {
    switch (hit.kind) {
      case GadgetHit::Kind::kWrpkru:
        ++(hit.sanctioned ? report.sanctioned : report.unsanctioned);
        break;
      case GadgetHit::Kind::kXrstor:
        ++report.xrstor;
        break;
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const size_t size = bytes.size();

  if (size < sizeof(Elf64_Ehdr) || std::memcmp(data, ELFMAG, SELFMAG) != 0 ||
      data[EI_CLASS] != ELFCLASS64) {
    return report;  // raw input: no registry to cross-check
  }

  Elf64_Ehdr header;
  std::memcpy(&header, data, sizeof(header));
  if (header.e_shoff == 0 || header.e_shentsize < sizeof(Elf64_Shdr) ||
      header.e_shoff + static_cast<uint64_t>(header.e_shnum) * header.e_shentsize > size) {
    return InvalidArgumentError(path + ": malformed ELF section table");
  }
  report.elf = true;

  std::vector<Elf64_Shdr> sections(header.e_shnum);
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(&sections[i], data + header.e_shoff + i * header.e_shentsize,
                sizeof(Elf64_Shdr));
  }

  const char* shstrtab = nullptr;
  size_t shstrtab_size = 0;
  if (header.e_shstrndx < sections.size()) {
    const Elf64_Shdr& strs = sections[header.e_shstrndx];
    if (strs.sh_offset + strs.sh_size <= size) {
      shstrtab = bytes.data() + strs.sh_offset;
      shstrtab_size = strs.sh_size;
    }
  }
  auto section_name = [&](const Elf64_Shdr& section) -> std::string {
    if (shstrtab == nullptr || section.sh_name >= shstrtab_size) {
      return "";
    }
    return std::string(shstrtab + section.sh_name);
  };

  // Virtual-address -> file-offset windows, in link-time vaddrs (sh_addr).
  std::vector<ExecWindow> windows;
  const Elf64_Shdr* registry = nullptr;
  for (const Elf64_Shdr& section : sections) {
    if (section.sh_type != SHT_NOBITS && (section.sh_flags & SHF_EXECINSTR) != 0) {
      windows.push_back({section.sh_addr, section.sh_size, section.sh_offset});
    }
    if (registry == nullptr && section_name(section) == kGateRegistrySection) {
      registry = &section;
    }
    // Text relocations: DT_TEXTREL, or DF_TEXTREL in DT_FLAGS.
    if (section.sh_type == SHT_DYNAMIC && section.sh_offset + section.sh_size <= size) {
      for (uint64_t at = 0; at + sizeof(Elf64_Dyn) <= section.sh_size; at += sizeof(Elf64_Dyn)) {
        Elf64_Dyn dyn;
        std::memcpy(&dyn, data + section.sh_offset + at, sizeof(dyn));
        if (dyn.d_tag == DT_NULL) {
          break;
        }
        if (dyn.d_tag == DT_TEXTREL || (dyn.d_tag == DT_FLAGS && (dyn.d_un.d_val & DF_TEXTREL))) {
          report.textrel = true;
        }
      }
    }
  }
  if (registry == nullptr) {
    return report;
  }
  report.has_registry = true;

  if (registry->sh_type == SHT_NOBITS || registry->sh_offset + registry->sh_size > size ||
      registry->sh_size % sizeof(int32_t) != 0) {
    return InvalidArgumentError(path + ": malformed " + std::string(kGateRegistrySection) +
                                " section");
  }

  // Entry i is PC-relative (`.long 1f - .`): the gate sits at the entry's
  // own vaddr plus the stored offset.
  report.registered = registry->sh_size / sizeof(int32_t);
  report.registry_vaddrs.resize(report.registered);
  for (size_t i = 0; i < report.registered; ++i) {
    int32_t delta = 0;
    std::memcpy(&delta, data + registry->sh_offset + i * sizeof(int32_t), sizeof(delta));
    report.registry_vaddrs[i] =
        registry->sh_addr + i * sizeof(int32_t) + static_cast<int64_t>(delta);
  }

  std::set<size_t> sanctioned_offsets;
  for (const GadgetHit& hit : report.hits) {
    if (hit.kind == GadgetHit::Kind::kWrpkru && hit.sanctioned) {
      sanctioned_offsets.insert(hit.offset);
    }
  }

  std::set<size_t> claimed;
  for (const uint64_t vaddr : report.registry_vaddrs) {
    bool verified = false;
    for (const ExecWindow& window : windows) {
      if (vaddr < window.vaddr || vaddr - window.vaddr >= window.size) {
        continue;
      }
      const size_t file_offset = static_cast<size_t>(window.offset + (vaddr - window.vaddr));
      if (sanctioned_offsets.contains(file_offset)) {
        verified = true;
        claimed.insert(file_offset);
      }
      break;
    }
    if (!verified) {
      ++report.registered_unverified;
    }
  }
  report.sanctioned_unregistered = sanctioned_offsets.size() - claimed.size();
  return report;
}

size_t CheckGateIntegrity(const BinaryGateReport& report, const GateInventory* inventory,
                          DiagnosticSink& sink) {
  size_t errors = 0;
  auto error = [&](std::string message, std::string hint) {
    Finding finding;
    finding.severity = Severity::kError;
    finding.rule = "gate-count-mismatch";
    finding.function = report.path;
    finding.message = std::move(message);
    finding.fix_hint = std::move(hint);
    sink.Report(std::move(finding));
    ++errors;
  };

  if (report.unsanctioned > 0) {
    error(StrFormat("%zu executable wrpkru byte sequence(s) carry no gate marker",
                    report.unsanctioned),
          "every transition must be one of the TCB's marked gates; rebuild to displace the "
          "stray encoding or route it through the call gate");
  }

  if (report.textrel) {
    Finding finding;
    finding.severity = Severity::kError;
    finding.rule = "text-relocation";
    finding.function = report.path;
    finding.message = "binary carries text relocations (DT_TEXTREL / DF_TEXTREL)";
    finding.fix_hint =
        "the loader makes code pages writable to patch them, a W^X hole in the binary whose "
        "gates this check certifies; emit position-independent data (e.g. PC-relative "
        "registry entries) instead of absolute addresses in read-only sections";
    sink.Report(std::move(finding));
    ++errors;
  }

  if (report.has_registry) {
    if (report.registered_unverified > 0) {
      error(StrFormat("%zu of %zu registered gate site(s) have no marker-verified wrpkru at "
                      "their address",
                      report.registered_unverified, report.registered),
            "the linker dropped, moved or stripped a gate the TCB emitted; the registry and "
            ".text must describe the same transition surface");
    }
    if (report.sanctioned_unregistered > 0) {
      error(StrFormat("%zu marker-verified wrpkru site(s) are absent from %s",
                      report.sanctioned_unregistered, kGateRegistrySection),
            "a sanctioned-looking gate exists that the TCB never registered (duplicated or "
            "foreign copy of the gate sequence)");
    }
  } else if (report.elf && report.sanctioned > 0) {
    error(StrFormat("binary carries %zu sanctioned gate(s) but no %s registry section",
                    report.sanctioned, kGateRegistrySection),
          "link the hardware backend that registers its gates, or strip the gate sequences");
  }

  if (inventory != nullptr) {
    if (!inventory->balanced()) {
      error(StrFormat("IR gate inventory is unbalanced: %zu T->U site(s) vs %zu U->T site(s)",
                      inventory->to_untrusted_sites, inventory->to_trusted_sites),
            "fix the pkru-unbalanced-gate findings before trusting the binary cross-check");
    }
    const bool module_needs_gates = inventory->to_untrusted_sites > 0;
    if (module_needs_gates && report.has_registry && report.sanctioned == 0) {
      error(StrFormat("IR inventory has %zu transition site(s) but the binary exposes no "
                      "sanctioned gate",
                      inventory->to_untrusted_sites),
            "the runtime cannot perform any PKRU transition; the module's gates would trap or "
            "silently no-op");
    }
  }

  {
    Finding finding;
    finding.severity = Severity::kNote;
    finding.rule = "gate-inventory";
    finding.function = report.path;
    finding.message = StrFormat(
        "binary: %zu sanctioned / %zu unsanctioned wrpkru, %zu xrstor, %zu registered site(s)%s",
        report.sanctioned, report.unsanctioned, report.xrstor, report.registered,
        inventory == nullptr
            ? ""
            : StrFormat("; IR: %zu T->U / %zu U->T site(s)", inventory->to_untrusted_sites,
                        inventory->to_trusted_sites)
                  .c_str());
    sink.Report(std::move(finding));
  }
  return errors;
}

}  // namespace analysis
}  // namespace pkrusafe
